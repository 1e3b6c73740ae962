# Convenience aliases; ci.sh is the authoritative gate.

.PHONY: ci build test race lint fuzz bench bench-cluster bench-hotpath prof

ci:
	./ci.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

lint:
	go run ./cmd/bulletlint -list
	go run ./cmd/bulletlint ./...

# ci.sh's fuzz table alone, 5s per target.
fuzz:
	./ci.sh fuzz

bench:
	go test -bench=. -benchtime=1x -short

# Cost per simulated request at 4, 16 and 64 replicas, serial and at the
# default fork/join width (see BENCH_cluster_sweep.json).
bench-cluster:
	go test -run='^$$' -bench ClusterScale -benchtime 1x -count 1 .

# Steady-state hot-path microbenchmarks (see BENCH_hotpath.json).
bench-hotpath:
	go test -run='^$$' -bench BenchmarkHotPaths -benchtime 100000x -count 1 .

# CPU+heap profile of a representative sweep (pprof files in ./prof/).
prof:
	mkdir -p prof
	go run ./cmd/bulletsim -system bullet -dataset azure-code -rate 8 -n 200 -seed 42 \
		-cpuprofile prof/bulletsim.cpu.pprof -memprofile prof/bulletsim.mem.pprof
	go run ./cmd/bulletbench -exp fig4 -quick \
		-cpuprofile prof/bulletbench.cpu.pprof -memprofile prof/bulletbench.mem.pprof
	go tool pprof -top -nodecount=15 prof/bulletsim.cpu.pprof
