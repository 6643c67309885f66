module sgb/benchmark

go 1.22

require sgb v0.0.0

replace sgb => ../
