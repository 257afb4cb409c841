module softpipe/benchmark

go 1.22

require softpipe v0.0.0

replace softpipe => ../
