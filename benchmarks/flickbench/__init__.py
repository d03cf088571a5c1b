"""flickbench: host time of the Flick simulator on four workloads, end to
end and per layer.  See README.md."""
