module github.com/ubc-cirrus-lab/femux-go/bench

go 1.22

require github.com/ubc-cirrus-lab/femux-go v0.0.0

replace github.com/ubc-cirrus-lab/femux-go => ../
