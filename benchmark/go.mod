module vdm/benchmark

go 1.22

require vdm v0.0.0

replace vdm => ../
