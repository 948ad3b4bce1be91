module unison/bench

go 1.22

require unison v0.0.0

replace unison => ../
