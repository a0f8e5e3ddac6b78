// Command gen generates the protobuf types of the alaya.v1.AlayaDB
// service. The schema lives here, as a descriptor table, and the
// program emits two artifacts from it:
//
//	alaya.pb.go — the Go message types with AppendProto/UnmarshalProto
//	              over the hand-written runtime in package pb
//	alaya.proto — the proto3 IDL, the interop contract for standard
//	              protoc-based clients in other languages
//
// Both are committed; `make proto` re-runs this program and a CI job
// fails if the committed files drift from the table. This is what lets
// the build stay free of protoc and google.golang.org/protobuf while
// still speaking wire-compatible gRPC.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
	"strings"
)

type field struct {
	goName    string // Go struct field
	protoName string // proto3 snake_case name
	num       int
	kind      string // sint64 | int64 | uint64 | float | bool | bytes | string | message
	repeated  bool   // only supported for kind == "message"
	msg       string // message type name when kind == "message"
	doc       string
}

type message struct {
	name   string
	doc    string
	fields []field
}

type method struct {
	name    string
	in, out string
	stream  bool // server-streaming response
	doc     string
}

// The schema. Field numbers are the wire contract: never renumber or
// reuse them, only append.
var messages = []message{
	{
		name: "Token",
		doc:  "Token mirrors model.Token: one document token.",
		fields: []field{
			{"Topic", "topic", 1, "sint64", false, "", "synthetic vocabulary topic id"},
			{"Payload", "payload", 2, "sint64", false, "", "payload symbol within the topic"},
			{"Salience", "salience", 3, "float", false, "", "0 means default (1.0)"},
		},
	},
	{
		name: "CreateSessionRequest",
		doc:  "CreateSessionRequest opens a session over a document (serve.DocumentWire).",
		fields: []field{
			{"Seed", "seed", 1, "uint64", false, "", "document identity for prefix reuse"},
			{"Tokens", "tokens", 2, "message", true, "Token", "prompt tokens"},
			{"SpanLo", "span_lo", 3, "int64", false, "", "range-shard span start (cluster shards)"},
			{"SpanHi", "span_hi", 4, "int64", false, "", "exclusive span end; 0 = open tail"},
		},
	},
	{
		name: "CreateSessionResponse",
		doc:  "CreateSessionResponse reports the session id and reused prompt tokens.",
		fields: []field{
			{"SessionID", "session_id", 1, "int64", false, "", ""},
			{"Reused", "reused", 2, "int64", false, "", "prompt tokens reused from a shared prefix"},
		},
	},
	{
		name: "SessionRequest",
		doc:  "SessionRequest addresses an RPC whose only input is the session.",
		fields: []field{
			{"SessionID", "session_id", 1, "int64", false, "", ""},
		},
	},
	{
		name: "PrefillResponse",
		doc:  "PrefillResponse reports a prefill's effect.",
		fields: []field{
			{"Prefilled", "prefilled", 1, "int64", false, "", "tokens ingested by this call"},
			{"ContextLen", "context_len", 2, "int64", false, "", ""},
		},
	},
	{
		name: "FrameRequest",
		doc: "FrameRequest carries a tensor request as one application/x-alaya-frame\n" +
			"binary frame (serve.MarshalFrame), the same encoding the HTTP binary\n" +
			"wire uses — which is what makes gRPC results bit-exact with HTTP.",
		fields: []field{
			{"SessionID", "session_id", 1, "int64", false, "", ""},
			{"Frame", "frame", 2, "bytes", false, "", "one binary frame: the request payload"},
		},
	},
	{
		name: "FrameResponse",
		doc: "FrameResponse carries a tensor response as one binary frame. For\n" +
			"StepStream each message holds one stream-item frame and the final\n" +
			"message holds the stream-end frame.",
		fields: []field{
			{"Frame", "frame", 1, "bytes", false, "", ""},
		},
	},
	{
		name: "StoreResponse",
		doc:  "StoreResponse reports a successful context store.",
		fields: []field{
			{"StoredTokens", "stored_tokens", 1, "int64", false, "", ""},
		},
	},
	{
		name: "CloseSessionResponse",
		doc:  "CloseSessionResponse acknowledges a session close.",
		fields: []field{
			{"Status", "status", 1, "string", false, "", ""},
		},
	},
	{
		name: "HealthzRequest",
		doc:  "HealthzRequest is the empty probe input.",
	},
	{
		name: "HealthzResponse",
		doc:  "HealthzResponse is the load-balancer probe body.",
		fields: []field{
			{"Status", "status", 1, "string", false, "", ""},
			{"OpenSessions", "open_sessions", 2, "int64", false, "", ""},
		},
	},
	{
		name: "StatsRequest",
		doc:  "StatsRequest is the empty stats input.",
	},
	{
		name: "StatsResponse",
		doc: "StatsResponse carries serve.StatsResponse as its JSON encoding: the\n" +
			"stats document grows every release, and JSON keeps old clients\n" +
			"tolerant of new fields without wire-contract churn.",
		fields: []field{
			{"StatsJSON", "stats_json", 1, "bytes", false, "", "JSON-encoded serve.StatsResponse"},
		},
	},
}

var methods = []method{
	{"CreateSession", "CreateSessionRequest", "CreateSessionResponse", false, "CreateSession opens (or prefix-reuses) a session over a document."},
	{"Prefill", "SessionRequest", "PrefillResponse", false, "Prefill ingests the session's prompt into the KV substrate."},
	{"Step", "FrameRequest", "FrameResponse", false, "Step is the decode step: token in, every layer and head out (frame: StepRequest)."},
	{"StepStream", "FrameRequest", "FrameResponse", true, "StepStream streams one frame per step as each step completes."},
	{"Store", "SessionRequest", "StoreResponse", false, "Store persists the session's context for later reuse."},
	{"CloseSession", "SessionRequest", "CloseSessionResponse", false, "CloseSession releases the session."},
	{"Healthz", "HealthzRequest", "HealthzResponse", false, "Healthz is the liveness probe."},
	{"Stats", "StatsRequest", "StatsResponse", false, "Stats reports DB-wide counters."},
}

const servicePackage = "alaya.v1"
const serviceName = "AlayaDB"

func goType(f field) string {
	switch f.kind {
	case "sint64", "int64":
		return "int64"
	case "uint64":
		return "uint64"
	case "float":
		return "float32"
	case "bool":
		return "bool"
	case "bytes":
		return "[]byte"
	case "string":
		return "string"
	case "message":
		if f.repeated {
			return "[]" + f.msg
		}
		return f.msg
	}
	panic("unknown kind " + f.kind)
}

func protoType(f field) string {
	t := f.kind
	if f.kind == "message" {
		t = f.msg
	}
	if f.repeated {
		t = "repeated " + t
	}
	return t
}

func emitGo() []byte {
	var b bytes.Buffer
	p := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }

	p("// Code generated by gen (make proto). DO NOT EDIT.")
	p("//")
	p("// Source of truth: the descriptor table in ./gen. Edit that table and")
	p("// re-run `make proto`; CI regenerates and fails on drift.")
	p("")
	p("package pb")
	p("")
	p(`import "math"`)
	p("")
	p("// ServiceName is the fully-qualified gRPC service.")
	p("const ServiceName = %q", servicePackage+"."+serviceName)
	p("")
	p("// Method paths: the :path pseudo-header value of each RPC.")
	p("const (")
	for _, m := range methods {
		p("\tMethod%s = %q", m.name, "/"+servicePackage+"."+serviceName+"/"+m.name)
	}
	p(")")
	p("")
	p("// StreamingMethods marks the RPCs whose response is server-streaming.")
	p("var StreamingMethods = map[string]bool{")
	for _, m := range methods {
		if m.stream {
			p("\tMethod%s: true,", m.name)
		}
	}
	p("}")

	for _, msg := range messages {
		p("")
		for _, line := range strings.Split(msg.doc, "\n") {
			p("// %s", line)
		}
		p("type %s struct {", msg.name)
		for _, f := range msg.fields {
			if f.doc != "" {
				p("\t%s %s // %s", f.goName, goType(f), f.doc)
			} else {
				p("\t%s %s", f.goName, goType(f))
			}
		}
		p("}")
		p("")

		// Encoder.
		p("// AppendProto appends the message's proto3 encoding to b.")
		p("func (m *%s) AppendProto(b []byte) []byte {", msg.name)
		for _, f := range msg.fields {
			switch f.kind {
			case "sint64":
				p("\tb = appendZigzagField(b, %d, m.%s)", f.num, f.goName)
			case "int64":
				p("\tb = appendVarintField(b, %d, uint64(m.%s))", f.num, f.goName)
			case "uint64":
				p("\tb = appendVarintField(b, %d, m.%s)", f.num, f.goName)
			case "float":
				p("\tb = appendFloatField(b, %d, m.%s)", f.num, f.goName)
			case "bool":
				p("\tif m.%s {", f.goName)
				p("\t\tb = appendVarintField(b, %d, 1)", f.num)
				p("\t}")
			case "bytes":
				p("\tb = appendBytesField(b, %d, m.%s)", f.num, f.goName)
			case "string":
				p("\tb = appendStringField(b, %d, m.%s)", f.num, f.goName)
			case "message":
				if f.repeated {
					p("\tfor i := range m.%s {", f.goName)
					p("\t\tb = appendMessageField(b, %d, &m.%s[i])", f.num, f.goName)
					p("\t}")
				} else {
					p("\tb = appendMessageField(b, %d, &m.%s)", f.num, f.goName)
				}
			}
		}
		p("\treturn b")
		p("}")
		p("")

		// Decoder.
		p("// UnmarshalProto replaces the message with the decoding of data.")
		p("func (m *%s) UnmarshalProto(data []byte) error {", msg.name)
		p("\t*m = %s{}", msg.name)
		p("\tr := reader{buf: data}")
		p("\tfor {")
		p("\t\tnum, wt, ok := r.tag()")
		p("\t\tif !ok {")
		p("\t\t\tbreak")
		p("\t\t}")
		if len(msg.fields) == 0 {
			p("\t\t_ = num")
			p("\t\tr.skip(wt)")
		} else {
			p("\t\tswitch num {")
			for _, f := range msg.fields {
				p("\t\tcase %d:", f.num)
				wantWire := "wireVarint"
				switch f.kind {
				case "float":
					wantWire = "wireFixed32"
				case "bytes", "string", "message":
					wantWire = "wireBytes"
				}
				p("\t\t\tif wt != %s {", wantWire)
				p("\t\t\t\tr.skip(wt)")
				p("\t\t\t\tbreak")
				p("\t\t\t}")
				switch f.kind {
				case "sint64":
					p("\t\t\tm.%s = unzigzag(r.varint())", f.goName)
				case "int64":
					p("\t\t\tm.%s = int64(r.varint())", f.goName)
				case "uint64":
					p("\t\t\tm.%s = r.varint()", f.goName)
				case "float":
					p("\t\t\tm.%s = math.Float32frombits(r.fixed32())", f.goName)
				case "bool":
					p("\t\t\tm.%s = r.varint() != 0", f.goName)
				case "bytes":
					p("\t\t\tm.%s = append(m.%s[:0], r.bytes()...)", f.goName, f.goName)
				case "string":
					p("\t\t\tm.%s = string(r.bytes())", f.goName)
				case "message":
					if f.repeated {
						p("\t\t\tm.%s = append(m.%s, %s{})", f.goName, f.goName, f.msg)
						p("\t\t\tr.message(&m.%s[len(m.%s)-1])", f.goName, f.goName)
					} else {
						p("\t\t\tr.message(&m.%s)", f.goName)
					}
				}
			}
			p("\t\tdefault:")
			p("\t\t\tr.skip(wt)")
			p("\t\t}")
		}
		p("\t}")
		p("\treturn r.err")
		p("}")
	}

	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("generated Go does not parse: %v\n%s", err, b.Bytes())
	}
	return src
}

func emitProto() []byte {
	var b bytes.Buffer
	p := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }

	p("// Generated by gen (make proto) from the descriptor table in")
	p("// internal/serve/grpc/pb/gen. DO NOT EDIT.")
	p("//")
	p("// This file is the interop contract: compile it with protoc to talk to")
	p("// alayad from standard gRPC stacks in other languages. The Go build")
	p("// does not consume it — alaya.pb.go is generated from the same table.")
	p("")
	p(`syntax = "proto3";`)
	p("")
	p("package %s;", servicePackage)
	p("")
	p(`option go_package = "repro/internal/serve/grpc/pb";`)
	for _, msg := range messages {
		p("")
		for _, line := range strings.Split(msg.doc, "\n") {
			p("// %s", line)
		}
		p("message %s {", msg.name)
		for _, f := range msg.fields {
			if f.doc != "" {
				p("  %s %s = %d; // %s", protoType(f), f.protoName, f.num, f.doc)
			} else {
				p("  %s %s = %d;", protoType(f), f.protoName, f.num)
			}
		}
		p("}")
	}
	p("")
	p("// AlayaDB is the engine-facing decode service: session lifecycle plus")
	p("// the step protocol. Tensor payloads ride inside frame bytes fields")
	p("// using the same binary encoding as the HTTP transport.")
	p("service %s {", serviceName)
	for _, m := range methods {
		p("  // %s", m.doc)
		out := m.out
		if m.stream {
			out = "stream " + out
		}
		p("  rpc %s(%s) returns (%s);", m.name, m.in, out)
	}
	p("}")
	return b.Bytes()
}

func main() {
	dir := flag.String("dir", "internal/serve/grpc/pb", "output directory")
	flag.Parse()

	for name, data := range map[string][]byte{
		"alaya.pb.go": emitGo(),
		"alaya.proto": emitProto(),
	} {
		path := filepath.Join(*dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
}
