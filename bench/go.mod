module centralium/bench

go 1.22

require centralium v0.0.0

replace centralium => ../
