module ojv/benchmark

go 1.22

require ojv v0.0.0

replace ojv => ../
