"""The three workloads; each module runs one round in its own process."""
