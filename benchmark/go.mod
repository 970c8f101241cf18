module cuckoograph/benchmark

go 1.23

require cuckoograph v0.0.0

replace cuckoograph => ../
