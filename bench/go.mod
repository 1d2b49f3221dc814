module rckalign/bench

go 1.22

require rckalign v0.0.0

replace rckalign => ../
