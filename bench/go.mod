module s4/bench

go 1.22

require s4 v0.0.0

replace s4 => ../
