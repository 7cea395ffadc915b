module github.com/sharon-project/sharon/benchmark

go 1.24

require github.com/sharon-project/sharon v0.0.0

replace github.com/sharon-project/sharon => ../
