module dynppr/benchmark

go 1.24

require dynppr v0.0.0

replace dynppr => ../
