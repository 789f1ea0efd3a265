module scan/bench

go 1.23

require scan v0.0.0

replace scan => ../
