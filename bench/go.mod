module sweb/bench

go 1.22

require sweb v0.0.0

replace sweb => ../
