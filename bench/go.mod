module colocmodel/bench

go 1.22

require colocmodel v0.0.0

replace colocmodel => ../
