# Single source of truth for build/test/bench invocations; CI runs these
# exact targets so local dev and the pipeline never drift.

GO ?= go

.PHONY: all build test race bench smoke-cluster proto cover fuzz fmt vet

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-mode sweep of the concurrent layers (plus everything else; the serve,
# core and attention packages are the ones exercising the new locking).
race:
	$(GO) test -race ./...

# Full benchmark pass; use BENCHTIME=1x for the CI smoke run.
BENCHTIME ?= 1s
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -run '^$$' ./...

# Cluster smoke: two real alayad nodes plus a shard router on loopback —
# range-sharded placement, prefill through the router, per-node health
# via alayactl nodes, clean close.
smoke-cluster:
	sh scripts/smoke_cluster.sh

# Regenerate the committed gRPC protobuf artefacts (alaya.pb.go and
# alaya.proto) from the descriptor table in the generator; CI fails if
# the committed files drift from the generator's output.
proto:
	$(GO) run ./internal/serve/grpc/pb/gen -dir internal/serve/grpc/pb

# Coverage ratchet: fail if total statement coverage falls below COVER_MIN.
COVER_MIN ?= 83.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	echo "total statement coverage: $$total% (floor: $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) ? 1 : 0 }' || \
		{ echo "coverage fell below the ratchet floor"; exit 1; }

# Short coverage-guided fuzz passes over the spill format and the wires:
# the vfs file parser (FuzzOpen), the run writer against its per-row
# reference (FuzzAppendMatrix), a context directory's manifest through
# LoadContext (FuzzLoadContextManifest), the binary frame wire's decoders
# and stream scanner (FuzzUnmarshalFrame), then the gRPC message reader
# (FuzzReadMessage) and the CreateSessionRequest and FrameRequest protobuf
# decoders (FuzzRoundTrip), each for FUZZTIME. go test fuzzes one target
# per invocation; the seeds of all six also run as ordinary tests in
# `make test`.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/storage/vfs -run '^FuzzOpen$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/vfs -run '^FuzzAppendMatrix$$' -fuzz '^FuzzAppendMatrix$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^FuzzLoadContextManifest$$' -fuzz '^FuzzLoadContextManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^FuzzUnmarshalFrame$$' -fuzz '^FuzzUnmarshalFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/grpc -run '^FuzzReadMessage$$' -fuzz '^FuzzReadMessage$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/grpc/pb -run '^FuzzRoundTrip$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME)

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
