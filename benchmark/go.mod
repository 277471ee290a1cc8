module pktclass/benchmark

go 1.22

require pktclass v0.0.0

replace pktclass => ../
