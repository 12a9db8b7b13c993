module softmem/bench

go 1.24

require softmem v0.0.0

replace softmem => ../
