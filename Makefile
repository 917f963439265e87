GO ?= go

.PHONY: all build test vet race cover fuzz faultsmoke bench verify

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race and fuzz run the lists verify.sh runs (scripts/gates.sh holds them).
race:
	./scripts/gates.sh race

# cover enforces the per-package coverage floors listed in
# scripts/cover.sh (70% each).
cover:
	./scripts/cover.sh

# fuzz runs every fuzz target for 10s — the same smoke verify runs.
fuzz:
	./scripts/gates.sh fuzz

faultsmoke:
	$(GO) run ./cmd/ecbench -fault grind

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1s .

# verify is the pre-merge gate: tier-1 tests, vet, the race gate and a
# one-iteration benchmark smoke. Keep it green before every commit.
verify:
	./scripts/verify.sh
