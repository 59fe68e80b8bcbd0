module github.com/relay-networks/privaterelay/bench

go 1.22

require github.com/relay-networks/privaterelay v0.0.0

replace github.com/relay-networks/privaterelay => ../
