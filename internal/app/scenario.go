package app

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"unison/internal/sim"
)

// A Scenario is the declarative description of one simulation: topology,
// workload (statistical traffic and/or a collective), protocol stack,
// kernel and artifact knobs, loadable from a single JSON file.
// It is the one input of the CLIs that run one (unisim, unidist): a
// -scenario file, or DefaultScenario, with -set path=value assignments
// applied on top (Set). Build resolves a Scenario into a runnable Sim.
//
// Versioning: Version is required and must equal SchemaVersion. The
// schema evolves by adding optional keys under the same version; keys are
// never renamed or repurposed. Unknown keys are rejected with their full
// path (so a file written for a newer schema fails loudly instead of
// silently dropping settings), and a version bump is reserved for
// incompatible changes.
type Scenario struct {
	// Version is the schema version; required, currently 1.
	Version int `json:"version"`
	// Name labels the scenario in reports and artifact metadata.
	Name string `json:"name,omitempty"`
	// Seed feeds every random stream (traffic, ECMP hashing, RED).
	Seed uint64 `json:"seed,omitempty"`
	// Stop is the simulated duration; required.
	Stop Duration `json:"stop"`

	Topology TopologySpec `json:"topology"`
	Routing  RoutingSpec  `json:"routing,omitempty"`
	Protocol ProtocolSpec `json:"protocol,omitempty"`
	// Traffic describes the statistical background workload; optional
	// when a Collective is present.
	Traffic *TrafficSpec `json:"traffic,omitempty"`
	// Collective adds a collective-communication workload (internal/coll)
	// on top of Traffic; optional when Traffic is present.
	Collective *CollectiveSpec `json:"collective,omitempty"`
	Kernel     KernelSpec      `json:"kernel,omitempty"`
	Artifacts  ArtifactSpec    `json:"artifacts,omitempty"`
}

// SchemaVersion is the scenario schema version this build reads/writes.
const SchemaVersion = 1

// TopologySpec selects and parameterizes the network topology.
type TopologySpec struct {
	// Kind: fattree | torus | bcube | spineleaf | dumbbell | geant | chinanet.
	Kind string `json:"kind"`
	// K is the fat-tree arity (default 4).
	K int `json:"k,omitempty"`
	// Rows/Cols size the torus (default 6x6).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// N is the bcube port count / dumbbell pair count / spine-leaf hosts
	// per leaf (default 4).
	N int `json:"n,omitempty"`
	// Spines/Leaves size the spine-leaf fabric (default 2x4).
	Spines int `json:"spines,omitempty"`
	Leaves int `json:"leaves,omitempty"`
	// BwGbps is the link bandwidth in Gbit/s (default 10).
	BwGbps float64 `json:"bw_gbps,omitempty"`
	// Delay is the per-link propagation delay (default 3µs).
	Delay Duration `json:"delay,omitempty"`
}

// RoutingSpec selects the routing protocol.
type RoutingSpec struct {
	// Kind: ecmp (default) | rip.
	Kind string `json:"kind,omitempty"`
	// Metric: hops (default) | delay. Ignored by rip.
	Metric string `json:"metric,omitempty"`
	// Period is the RIP advertisement period (default 20ms).
	Period Duration `json:"period,omitempty"`
}

// ProtocolSpec tunes transport and queueing.
type ProtocolSpec struct {
	TCP   TCPSpec   `json:"tcp,omitempty"`
	Queue QueueSpec `json:"queue,omitempty"`
	// ChecksumWork enables the per-byte processing cost model (default
	// true; explicit false disables it).
	ChecksumWork *bool `json:"checksum_work,omitempty"`
}

// TCPSpec tunes the transport; zero values keep the profile defaults.
type TCPSpec struct {
	// Variant: newreno (default) | dctcp.
	Variant string `json:"variant,omitempty"`
	// WAN selects the wide-area profile (200ms RTO floor).
	WAN bool `json:"wan,omitempty"`
	// MinRTO overrides the RTO floor.
	MinRTO Duration `json:"min_rto,omitempty"`
	// InitCwnd overrides the initial window (segments).
	InitCwnd int32 `json:"init_cwnd,omitempty"`
	// DelayedAck enables/disables ACK coalescing.
	DelayedAck *bool `json:"delayed_ack,omitempty"`
	// AckDelay overrides the delayed-ACK timeout.
	AckDelay Duration `json:"ack_delay,omitempty"`
	// RcvBuf enables receive-window flow control (bytes).
	RcvBuf int32 `json:"rcv_buf,omitempty"`
}

// QueueSpec selects the per-device queue discipline.
type QueueSpec struct {
	// Kind: droptail (default) | red | dctcp | pfifo | codel.
	Kind string `json:"kind,omitempty"`
	// MaxPkts is the queue capacity in packets (default 100).
	MaxPkts int `json:"max_pkts,omitempty"`
	// EcnK is the DCTCP step-marking threshold in packets (default 20).
	EcnK float64 `json:"ecn_k,omitempty"`
	// ECN makes RED mark instead of drop.
	ECN *bool `json:"ecn,omitempty"`
}

// TrafficSpec parameterizes the statistical workload generator.
type TrafficSpec struct {
	// Load is the offered load as a fraction of bisection bandwidth;
	// required (positive) when the traffic section is present.
	Load float64 `json:"load"`
	// Sizes: grpc (default) | websearch flow-size CDF.
	Sizes string `json:"sizes,omitempty"`
	// Pattern: uniform (default) | permutation.
	Pattern string `json:"pattern,omitempty"`
	// Incast redirects this fraction of flows to the victim host.
	Incast float64 `json:"incast,omitempty"`
	// Victim is the incast victim as a host index (0-based position in
	// the topology's host list). Present means explicitly chosen — host
	// 0 included; absent picks the generator default (last host).
	Victim *int `json:"victim,omitempty"`
	// Start/End bracket the arrival window (defaults 0 and 3/4 of stop).
	Start Duration `json:"start,omitempty"`
	End   Duration `json:"end,omitempty"`
	// Stream generates the workload lazily as virtual time advances
	// (O(window) memory; needs a kernel with global-event support, so
	// not nullmsg/vnullmsg or the distributed runtime).
	Stream bool `json:"stream,omitempty"`
	// StreamWindow is the streaming pull-ahead horizon (default 100µs).
	StreamWindow Duration `json:"stream_window,omitempty"`
}

// CollectiveSpec parameterizes the collective workload (internal/coll).
type CollectiveSpec struct {
	// Pattern: ring-allreduce | tree-allreduce | alltoall | paramserver.
	Pattern string `json:"pattern"`
	// Participants is the number of hosts taking part, in topology host
	// order (default: every host; rank 0 is the tree root / parameter
	// server).
	Participants int `json:"participants,omitempty"`
	// MessageBytes is each participant's message size; required.
	MessageBytes int64 `json:"message_bytes"`
	// ChunkBytes pipelines transfers larger than this (0: no chunking).
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	// Start is the collective's launch time.
	Start Duration `json:"start,omitempty"`
	// StepDelay models per-step framework launch overhead.
	StepDelay Duration `json:"step_delay,omitempty"`
	// Iters repeats the paramserver push/pull cycle (default 1).
	Iters int `json:"iters,omitempty"`
}

// KernelSpec selects the kernel the run executes under.
type KernelSpec struct {
	// Kind: sequential | unison (default) | hybrid | barrier | nullmsg |
	// vseq | vbarrier | vnullmsg | vunison.
	Kind string `json:"kind,omitempty"`
	// Threads is the worker count (unison/hybrid/virtual cores, default 4).
	Threads int `json:"threads,omitempty"`
	// Ranks is the manual-partition LP count for barrier/nullmsg/dist
	// (default: the topology's recipe default, e.g. k for a fat-tree).
	Ranks int `json:"ranks,omitempty"`
}

// ArtifactSpec tunes run artifacts.
type ArtifactSpec struct {
	// Dir is the artifact bundle directory ("" disables artifacts).
	Dir string `json:"dir,omitempty"`
	// Interval is the sampler bucket width (default
	// netobs.DefaultInterval, 100µs).
	Interval Duration `json:"interval,omitempty"`
}

// Duration is a sim.Time that marshals as a human-readable duration
// string ("250us", "2ms") and unmarshals from either such a string or a
// bare integer nanosecond count.
type Duration sim.Time

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		td, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		*d = Duration(td.Nanoseconds())
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// T converts to simulated time.
func (d Duration) T() sim.Time { return sim.Time(d) }

// DefaultScenario returns the baseline scenario unisim and unidist start
// from when no -scenario file is given: a k=4 fat-tree under 30% gRPC load
// on the Unison kernel.
func DefaultScenario() *Scenario {
	return &Scenario{
		Version:  SchemaVersion,
		Seed:     42,
		Stop:     Duration(2 * sim.Millisecond),
		Topology: TopologySpec{Kind: "fattree", K: 4, BwGbps: 10, Delay: Duration(3 * sim.Microsecond)},
		Traffic:  &TrafficSpec{Load: 0.3, Sizes: "grpc"},
		Kernel:   KernelSpec{Kind: "unison", Threads: 4},
	}
}

// LoadScenario reads and parses the JSON scenario file at path.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := ParseScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// ParseScenario parses JSON scenario data. Unknown keys are rejected with
// their full path.
func ParseScenario(data []byte) (*Scenario, error) {
	var raw any
	if err := decodeJSON(data, &raw); err != nil {
		return nil, fmt.Errorf("scenario files are JSON: %w", err)
	}
	if err := checkUnknownKeys(raw, reflect.TypeOf(Scenario{}), ""); err != nil {
		return nil, err
	}
	sc := &Scenario{}
	if err := json.Unmarshal(data, sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Marshal renders the scenario in canonical form: indented JSON with the
// schema's field order and a trailing newline. The output is stable —
// marshal(parse(marshal(sc))) == marshal(sc) — which is what lets tests
// and tooling diff scenarios byte-wise.
func (sc *Scenario) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Save writes the scenario to path in canonical form.
func (sc *Scenario) Save(path string) error {
	b, err := sc.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// checkUnknownKeys walks decoded JSON against the schema struct's json
// tags and reports the first unknown key with its dotted path.
func checkUnknownKeys(v any, t reflect.Type, path string) error {
	m, ok := v.(map[string]any)
	if !ok {
		return nil
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return nil
	}
	fields := make(map[string]reflect.Type, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		if name != "-" {
			fields[name] = f.Type
		}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		full := k
		if path != "" {
			full = path + "." + k
		}
		ft, ok := fields[k]
		if !ok {
			return fmt.Errorf("scenario: unknown key %s", full)
		}
		for ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Slice {
			if items, ok := m[k].([]any); ok {
				for i, item := range items {
					if err := checkUnknownKeys(item, ft.Elem(), fmt.Sprintf("%s[%d]", full, i)); err != nil {
						return err
					}
				}
			}
			continue
		}
		if err := checkUnknownKeys(m[k], ft, full); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks structural consistency: version, required sections,
// and enum values. Build revalidates, so hand-constructed scenarios can
// skip the explicit call.
func (sc *Scenario) Validate() error {
	if sc.Version == 0 {
		return fmt.Errorf("scenario: missing version (current schema is %d)", SchemaVersion)
	}
	if sc.Version != SchemaVersion {
		return fmt.Errorf("scenario: version %d is not supported (this build reads %d)", sc.Version, SchemaVersion)
	}
	if sc.Stop <= 0 {
		return fmt.Errorf("scenario: stop must be a positive duration")
	}
	if sc.Traffic == nil && sc.Collective == nil {
		return fmt.Errorf("scenario: needs a traffic and/or collective section")
	}
	switch sc.Topology.Kind {
	case "fattree", "torus", "bcube", "spineleaf", "dumbbell", "geant", "chinanet":
	case "":
		return fmt.Errorf("scenario: missing topology.kind")
	default:
		return fmt.Errorf("scenario: unknown topology.kind %q", sc.Topology.Kind)
	}
	switch sc.Routing.Kind {
	case "", "ecmp", "rip":
	default:
		return fmt.Errorf("scenario: unknown routing.kind %q (ecmp | rip)", sc.Routing.Kind)
	}
	switch sc.Routing.Metric {
	case "", "hops", "delay":
	default:
		return fmt.Errorf("scenario: unknown routing.metric %q", sc.Routing.Metric)
	}
	switch sc.Protocol.TCP.Variant {
	case "", "newreno", "dctcp":
	default:
		return fmt.Errorf("scenario: unknown protocol.tcp.variant %q", sc.Protocol.TCP.Variant)
	}
	switch sc.Protocol.Queue.Kind {
	case "", "droptail", "red", "dctcp", "pfifo", "codel":
	default:
		return fmt.Errorf("scenario: unknown protocol.queue.kind %q", sc.Protocol.Queue.Kind)
	}
	if t := sc.Traffic; t != nil {
		if t.Load <= 0 {
			return fmt.Errorf("scenario: traffic.load must be positive")
		}
		switch t.Sizes {
		case "", "grpc", "websearch":
		default:
			return fmt.Errorf("scenario: unknown traffic.sizes %q", t.Sizes)
		}
		switch t.Pattern {
		case "", "uniform", "permutation":
		default:
			return fmt.Errorf("scenario: unknown traffic.pattern %q", t.Pattern)
		}
		if t.Incast < 0 || t.Incast > 1 {
			return fmt.Errorf("scenario: traffic.incast must be in [0,1]")
		}
		if t.Victim != nil && *t.Victim < 0 {
			return fmt.Errorf("scenario: traffic.victim must be a host index >= 0")
		}
	}
	if c := sc.Collective; c != nil {
		switch c.Pattern {
		case "ring-allreduce", "tree-allreduce", "alltoall", "paramserver":
		case "":
			return fmt.Errorf("scenario: missing collective.pattern")
		default:
			return fmt.Errorf("scenario: unknown collective.pattern %q", c.Pattern)
		}
		if c.MessageBytes <= 0 {
			return fmt.Errorf("scenario: collective.message_bytes must be positive")
		}
		if c.Participants < 0 || c.Participants == 1 {
			return fmt.Errorf("scenario: collective.participants must be >= 2 (or 0 for all hosts)")
		}
	}
	switch sc.Kernel.Kind {
	case "", "sequential", "seq", "unison", "hybrid", "barrier", "nullmsg",
		"vseq", "vbarrier", "vnullmsg", "vunison":
	default:
		return fmt.Errorf("scenario: unknown kernel.kind %q", sc.Kernel.Kind)
	}
	if sc.Traffic != nil && sc.Traffic.Stream {
		switch sc.Kernel.Kind {
		case "nullmsg", "vnullmsg":
			return fmt.Errorf("scenario: traffic.stream needs a kernel with global-event support; %s has none", sc.Kernel.Kind)
		}
	}
	return nil
}

// Set returns a copy of the scenario with each assignment path=value
// applied in order: the -set flag of unisim and unidist. path is a dotted key as
// written in a scenario file (topology.k, stop, artifacts.dir); value is
// read as JSON when it parses as JSON and as a string otherwise, so
// stop=500us and stop=500000 both work. Missing sections are created on
// the way, and the result is parsed by ParseScenario, so an unknown key
// or a bad value fails with the message a file would give.
func (sc *Scenario) Set(assigns []string) (*Scenario, error) {
	data, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	var root map[string]any
	if err := decodeJSON(data, &root); err != nil {
		return nil, err
	}
	for _, a := range assigns {
		path, raw, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("scenario: -set %q: want path=value", a)
		}
		var v any = raw
		if json.Valid([]byte(raw)) {
			if err := decodeJSON([]byte(raw), &v); err != nil {
				return nil, err
			}
		}
		keys := strings.Split(path, ".")
		m := root
		for i, k := range keys[:len(keys)-1] {
			if m[k] == nil {
				m[k] = map[string]any{}
			}
			sub, ok := m[k].(map[string]any)
			if !ok {
				return nil, fmt.Errorf("scenario: -set %s: %s is not an object", path, strings.Join(keys[:i+1], "."))
			}
			m = sub
		}
		m[keys[len(keys)-1]] = v
	}
	if data, err = json.Marshal(root); err != nil {
		return nil, err
	}
	return ParseScenario(data)
}

// decodeJSON decodes with numbers kept as their literals, so a uint64 seed
// above 2^53 survives a round trip through any.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}
