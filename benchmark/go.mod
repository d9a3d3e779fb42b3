module surw/benchmark

go 1.23

require surw v0.0.0

replace surw => ../
