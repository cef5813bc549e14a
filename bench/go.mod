module memthrottle/bench

go 1.22

require memthrottle v0.0.0

replace memthrottle => ../
