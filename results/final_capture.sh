#!/bin/bash
# Wait for the experiments queue, then capture the final test and bench outputs.
until grep -q QUEUE_DONE /root/repo/results/queue.log 2>/dev/null; do sleep 15; done
cd /root/repo
cargo test --workspace 2>&1 | tee /root/repo/test_output.txt > /dev/null
cargo bench --bench obs_overhead 2>&1 | tee bench_output.txt > /dev/null
echo CAPTURE_DONE
