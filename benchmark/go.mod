module bmeh/benchmark

go 1.22

require bmeh v0.0.0-00010101000000-000000000000

replace bmeh => ../
