package query

import "fmt"

// Kind enumerates AlayaDB's query types (§6.2).
type Kind int

const (
	// KindFull is exact full attention (no retrieval).
	KindFull Kind = iota
	// KindDIPR retrieves the dynamic β-critical token set.
	KindDIPR
)

func (k Kind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindDIPR:
		return "dipr"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IndexKind enumerates the index types of Table 4 that serving plans use.
// Table 4's coarse block index is a baseline only (internal/index/coarse).
type IndexKind int

const (
	// IndexNone: no index (full attention).
	IndexNone IndexKind = iota
	// IndexFine: graph index on host.
	IndexFine
	// IndexFlat: exhaustive scan on host.
	IndexFlat
)

func (k IndexKind) String() string {
	switch k {
	case IndexNone:
		return "none"
	case IndexFine:
		return "fine"
	case IndexFlat:
		return "flat"
	}
	return fmt.Sprintf("index(%d)", int(k))
}

// Plan is the optimizer's chosen execution strategy for one attention
// query. Its String form (full+none, dipr+flat, dipr+fine, each with an
// optional +filter) is the only form that leaves the process.
type Plan struct {
	Query    Kind
	Index    IndexKind
	Filtered bool // attribute-filtering predicate applied (partial reuse)
}

// planStrings caches every valid Plan's rendered form: the decode path
// records a plan string per attention call, and concatenating it each time
// would put one allocation on an otherwise allocation-free hot loop.
var planStrings = func() [numKinds * numIndexKinds * 2]string {
	var out [numKinds * numIndexKinds * 2]string
	for k := 0; k < numKinds; k++ {
		for ix := 0; ix < numIndexKinds; ix++ {
			s := Kind(k).String() + "+" + IndexKind(ix).String()
			out[(k*numIndexKinds+ix)*2] = s
			out[(k*numIndexKinds+ix)*2+1] = s + "+filter"
		}
	}
	return out
}()

const (
	numKinds      = int(KindDIPR) + 1
	numIndexKinds = int(IndexFlat) + 1
)

func (p Plan) String() string {
	if p.Query >= 0 && int(p.Query) < numKinds && p.Index >= 0 && int(p.Index) < numIndexKinds {
		i := (int(p.Query)*numIndexKinds + int(p.Index)) * 2
		if p.Filtered {
			i++
		}
		return planStrings[i]
	}
	s := p.Query.String() + "+" + p.Index.String()
	if p.Filtered {
		s += "+filter"
	}
	return s
}

// Request carries the facts the rule-based optimizer dispatches on
// (Figure 8).
type Request struct {
	// ContextLen is the session's current context length in tokens.
	ContextLen int
	// LongThreshold is the boundary below which full attention is cheap
	// enough to use outright. Zero selects the default (4096).
	LongThreshold int
	// PartialReuse is true when the session reuses only a prefix of a
	// stored context, requiring attribute filtering (§7.1).
	PartialReuse bool
	// DeviceFree and CoarseNeed are ignored: plans do not depend on the
	// device. They stay only while benchmark/probes.go sets them.
	DeviceFree, CoarseNeed int64
	// Layer is the 0-based transformer layer of the query. The first
	// layer's diffuse heads retrieve so many tokens that a flat scan beats
	// graph traversal (Figure 5, Table 4).
	Layer int
}

// DefaultLongThreshold is the context length above which attention queries
// are processed sparsely.
const DefaultLongThreshold = 4096

// Optimize implements the rule tree of Figure 8 without its device branch:
// a short context attends in full; a long one runs DIPR, through a flat
// scan on the first layer and the graph index elsewhere, filtered under
// partial reuse. Figure 8's coarse block top-k, planned when the device has
// room for its block cache, would run on the same CPU as DIPR at several
// times its cost for the same answers, so serving never plans it. The plan
// is a pure function of context length, threshold, partial reuse and layer.
func Optimize(r Request) Plan {
	threshold := r.LongThreshold
	if threshold <= 0 {
		threshold = DefaultLongThreshold
	}
	if r.ContextLen < threshold {
		return Plan{Query: KindFull, Index: IndexNone}
	}
	p := Plan{Query: KindDIPR, Index: IndexFine, Filtered: r.PartialReuse}
	if r.Layer == 0 {
		p.Index = IndexFlat
	}
	return p
}
