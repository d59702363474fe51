module heterosgd/bench

go 1.22

require heterosgd v0.0.0

replace heterosgd => ../
