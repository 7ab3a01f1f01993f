package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
)

// The legacy* types replicate the message structs exactly as they were
// encoded before distributed tracing existed (no Ctx on queries, no
// Spans on responses, no traces payloads). Gob matches struct fields by
// name, so frames produced from these decode through the current types
// — and vice versa — which is what keeps mixed-version communities and
// old packet captures readable.
type legacyQueryReq struct {
	Key   bitpath.Path
	Level int
}

type legacyQueryResp struct {
	Found      bool
	Peer       addr.Addr
	Path       bitpath.Path
	Messages   int
	Backtracks int
}

type legacyMessage struct {
	Kind      Kind
	From      addr.Addr
	Query     *legacyQueryReq
	QueryResp *legacyQueryResp
	Error     string
}

// legacyFrame encodes m with the pre-tracing struct layout and the same
// length-prefixed framing WriteMessage uses.
func legacyFrame(t *testing.T, m *legacyMessage) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(m); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(body.Len()))
	out.Write(lenb[:])
	out.Write(body.Bytes())
	return out.Bytes()
}

func TestDecodePreTracingQuery(t *testing.T) {
	frame := legacyFrame(t, &legacyMessage{
		Kind:  KindQuery,
		From:  3,
		Query: &legacyQueryReq{Key: bitpath.MustParse("0101"), Level: 2},
	})
	m, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("pre-tracing query frame did not decode: %v", err)
	}
	if m.Kind != KindQuery || m.From != 3 || m.Query == nil {
		t.Fatalf("envelope mismatch: %+v", m)
	}
	if m.Query.Key != bitpath.MustParse("0101") || m.Query.Level != 2 {
		t.Fatalf("payload mismatch: %+v", m.Query)
	}
	if m.Query.Ctx != nil {
		t.Fatalf("absent trace context decoded non-nil: %+v", m.Query.Ctx)
	}
}

func TestDecodePreTracingQueryResp(t *testing.T) {
	frame := legacyFrame(t, &legacyMessage{
		Kind: KindQueryResp,
		From: 9,
		QueryResp: &legacyQueryResp{Found: true, Peer: 9,
			Path: bitpath.MustParse("01"), Messages: 4, Backtracks: 1},
	})
	m, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("pre-tracing response frame did not decode: %v", err)
	}
	q := m.QueryResp
	if q == nil || !q.Found || q.Peer != 9 || q.Messages != 4 || q.Backtracks != 1 {
		t.Fatalf("payload mismatch: %+v", q)
	}
	if q.Spans != nil {
		t.Fatalf("absent spans decoded non-nil: %+v", q.Spans)
	}
}

// TestOldDecoderIgnoresTraceFields covers the opposite direction: a
// traced frame produced by a current node must still decode on a
// pre-tracing receiver (gob skips fields the receiver does not know).
func TestOldDecoderIgnoresTraceFields(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMessage(&buf, &Message{
		Kind: KindQuery, From: 5,
		Query: &QueryReq{Key: bitpath.MustParse("11"), Level: 1,
			Ctx: &trace.SpanContext{TraceID: 42, Parent: 7, Budget: 8, Sampled: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[4:] // strip the length prefix
	var legacy legacyMessage
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&legacy); err != nil {
		t.Fatalf("pre-tracing decoder rejected a traced frame: %v", err)
	}
	if legacy.Kind != KindQuery || legacy.Query == nil || legacy.Query.Key != bitpath.MustParse("11") {
		t.Fatalf("legacy decode mismatch: %+v", legacy)
	}
}

func TestTracedRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KindQueryResp, From: 2,
		QueryResp: &QueryResp{
			Found: true, Peer: 4, Path: bitpath.MustParse("0110"), Messages: 2,
			Spans: []trace.Span{
				{ID: 1, Peer: 2, Path: bitpath.MustParse("0"), Level: 0, Ref: 4, LatencyNS: 1200},
				{ID: 9, Parent: 1, Peer: 4, Path: bitpath.MustParse("0110"), Matched: true},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.QueryResp.Spans) != 2 || got.QueryResp.Spans[0] != m.QueryResp.Spans[0] ||
		got.QueryResp.Spans[1] != m.QueryResp.Spans[1] {
		t.Fatalf("spans did not round-trip: %+v", got.QueryResp.Spans)
	}
}

func TestTracesRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KindTracesResp, From: 1,
		TracesResp: &TracesResp{
			Total: 12,
			Traces: []trace.Trace{{
				TraceID: 99, Key: bitpath.MustParse("101"), Found: true, Messages: 1,
				Spans: []trace.Span{{ID: 3, Peer: 1, Path: bitpath.MustParse("1"), Matched: true}},
			}},
		},
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr := got.TracesResp
	if tr == nil || tr.Total != 12 || len(tr.Traces) != 1 || tr.Traces[0].TraceID != 99 {
		t.Fatalf("traces did not round-trip: %+v", tr)
	}
	if got.Kind.String() != "traces-resp" || KindTraces.String() != "traces" {
		t.Fatalf("kind names: %v %v", got.Kind, KindTraces)
	}
}

// TestKindNumbering pins the wire numbering: kinds are append-only and
// requests stay even, so mixed-version peers agree on every value. Retired
// kinds keep their slots as reserved blanks.
func TestKindNumbering(t *testing.T) {
	kinds := []struct {
		k    Kind
		name string
	}{
		{KindQuery, "query"}, {KindQueryResp, "query-resp"},
		{KindExchange, "exchange"}, {KindExchangeResp, "exchange-resp"},
		{KindApply, "apply"}, {KindApplyResp, "apply-resp"},
		{KindGet, "get"}, {KindGetResp, "get-resp"},
		{KindInfo, "info"}, {KindInfoResp, "info-resp"},
		{KindScan, "scan"}, {KindScanResp, "scan-resp"},
		{KindStats, "stats"}, {KindStatsResp, "stats-resp"},
		{KindError, "error"}, {15, "kind(15)"},
		{KindTraces, "traces"}, {KindTracesResp, "traces-resp"},
		{KindHealth, "health"}, {KindHealthResp, "health-resp"},
		{KindBatch, "batch"}, {KindBatchResp, "batch-resp"},
		{22, "kind(22)"}, {23, "kind(23)"}, // the retired codec-negotiation hello
		{KindMetrics, "metrics"}, {KindMetricsResp, "metrics-resp"},
		{KindHistory, "history"}, {KindHistoryResp, "history-resp"},
		{KindRepair, "repair"}, {KindRepairResp, "repair-resp"},
	}
	for n, c := range kinds {
		if int(c.k) != n || c.k.String() != c.name {
			t.Errorf("kind %q = %d (named %q), want %d", c.name, c.k, c.k.String(), n)
		}
	}
	// The codec has no body for a reserved kind in either direction.
	for _, k := range []Kind{22, 23} {
		if err := WriteFrame(io.Discard, 0, 0, &Message{Kind: k}); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("encoding reserved kind %d = %v, want ErrUnknownKind", k, err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 0, 0, &Message{Kind: KindInfo}); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		frame[3] = byte(k) // the header's kind byte
		if _, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("decoding reserved kind %d = %v, want ErrCorrupt", k, err)
		}
	}
}

// legacyPreHealthMessage replicates the message envelope exactly as it was
// encoded before the health kinds existed: no Health/HealthResp pointers.
type legacyPreHealthMessage struct {
	Kind      Kind
	From      addr.Addr
	Query     *legacyQueryReq
	QueryResp *legacyQueryResp
	Error     string
}

// TestDecodePreHealthFrame proves a pre-health peer's frames still decode
// on a current node: gob leaves the absent health payloads nil.
func TestDecodePreHealthFrame(t *testing.T) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&legacyPreHealthMessage{
		Kind: KindInfo, From: 4,
	}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(body.Len()))
	out.Write(lenb[:])
	out.Write(body.Bytes())

	m, err := ReadMessage(&out)
	if err != nil {
		t.Fatalf("pre-health frame did not decode: %v", err)
	}
	if m.Kind != KindInfo || m.From != 4 {
		t.Fatalf("envelope mismatch: %+v", m)
	}
	if m.Health != nil || m.HealthResp != nil {
		t.Fatalf("absent health payloads decoded non-nil: %+v", m)
	}
}

// TestOldDecoderIgnoresHealthFields covers the opposite direction: a
// digest-carrying frame produced by a current node must still decode on a
// pre-health receiver (gob skips fields the receiver does not know), so a
// crawler polling a mixed-version community never wedges old peers.
func TestOldDecoderIgnoresHealthFields(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMessage(&buf, &Message{
		Kind: KindHealthResp, From: 6,
		HealthResp: &HealthResp{
			Rounds: 3,
			Digest: health.Digest{
				Addr: 6, Path: bitpath.MustParse("011"),
				Entries: 2, MaxVersion: 9, IndexHash: 0xdeadbeef,
				RefCounts: []int{2, 1, 1}, Buddies: 1,
				Liveness: []health.LevelProbe{{Level: 1, Live: 5, Dead: 1}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[4:] // strip the length prefix
	var legacy legacyPreHealthMessage
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&legacy); err != nil {
		t.Fatalf("pre-health decoder rejected a digest frame: %v", err)
	}
	if legacy.Kind != KindHealthResp || legacy.From != 6 {
		t.Fatalf("legacy decode mismatch: %+v", legacy)
	}
}

// TestDecodePreMetricsFrame proves frames from peers that predate the
// metrics kinds still decode (gob leaves the absent payload nil), and a
// metrics-carrying frame decodes on such a peer.
func TestDecodePreMetricsFrame(t *testing.T) {
	// legacyPreHealthMessage also predates metrics — reuse it.
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&legacyPreHealthMessage{
		Kind: KindStats, From: 8,
	}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(body.Len()))
	out.Write(lenb[:])
	out.Write(body.Bytes())
	m, err := ReadMessage(&out)
	if err != nil {
		t.Fatalf("pre-metrics frame did not decode: %v", err)
	}
	if m.MetricsResp != nil {
		t.Fatalf("absent metrics payload decoded non-nil: %+v", m)
	}

	// Opposite direction: a snapshot-carrying frame through a pre-metrics
	// decoder.
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Kind: KindMetricsResp, From: 5,
		MetricsResp: &MetricsResp{Snap: telemetry.MetricsSnapshot{
			Schema: telemetry.MetricsSchemaVersion,
			Stats:  []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 12}},
			Hists: []telemetry.QHistSnapshot{{Name: "lat", SubBits: 4, Count: 1,
				Sum: 99, Idx: []uint16{5}, N: []int64{1}}}}}}); err != nil {
		t.Fatal(err)
	}
	var legacy legacyPreHealthMessage
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[4:])).Decode(&legacy); err != nil {
		t.Fatalf("pre-metrics decoder rejected a snapshot frame: %v", err)
	}
	if legacy.Kind != KindMetricsResp || legacy.From != 5 {
		t.Fatalf("legacy decode mismatch: %+v", legacy)
	}
}

// TestMetricsRoundTrip pins the gob path for the metrics pair, including
// the payload-less request and an empty (telemetry-disabled) snapshot.
func TestMetricsRoundTrip(t *testing.T) {
	var rb bytes.Buffer
	if err := WriteMessage(&rb, &Message{Kind: KindMetrics, From: 3}); err != nil {
		t.Fatal(err)
	}
	req, err := ReadMessage(&rb)
	if err != nil || req.Kind != KindMetrics || req.From != 3 {
		t.Fatalf("metrics request round trip: %+v, %v", req, err)
	}

	m := &Message{Kind: KindMetricsResp, From: 2, MetricsResp: &MetricsResp{
		Snap: telemetry.MetricsSnapshot{
			Schema: telemetry.MetricsSchemaVersion,
			Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 42},
				{Name: "pgrid_health_liveness_permille", Value: -1}},
			Hists: []telemetry.QHistSnapshot{{Name: `pgrid_rpc_kind_latency_ns{kind="query"}`,
				SubBits: 4, Count: 3, Sum: 3000, Idx: []uint16{16, 200}, N: []int64{2, 1}}}}}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := got.MetricsResp
	if r == nil || r.Snap.Schema != telemetry.MetricsSchemaVersion || len(r.Snap.Stats) != 2 {
		t.Fatalf("metrics response did not round-trip: %+v", r)
	}
	h := r.Snap.Hists[0]
	if h.Name != m.MetricsResp.Snap.Hists[0].Name || h.Count != 3 || h.Sum != 3000 ||
		len(h.Idx) != 2 || h.Idx[1] != 200 || h.N[0] != 2 {
		t.Fatalf("histogram snapshot did not round-trip: %+v", h)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("round-tripped snapshot invalid: %v", err)
	}

	// Telemetry disabled: empty, schema-stamped snapshot.
	var eb bytes.Buffer
	if err := WriteMessage(&eb, &Message{Kind: KindMetricsResp, From: 2,
		MetricsResp: &MetricsResp{Snap: telemetry.MetricsSnapshot{
			Schema: telemetry.MetricsSchemaVersion}}}); err != nil {
		t.Fatal(err)
	}
	empty, err := ReadMessage(&eb)
	if err != nil || empty.MetricsResp == nil || len(empty.MetricsResp.Snap.Stats) != 0 {
		t.Fatalf("empty snapshot round trip: %+v, %v", empty.MetricsResp, err)
	}
}

// The legacyV1* types replicate the telemetry snapshot exactly as schema
// v1 encoded it: no incarnation stamp on the snapshot, no exemplars on
// the histograms. Gob matches fields by name, so v1 frames decode
// through the v2 reader with the new fields zero — which the v2 reader
// treats as "unknown epoch" — and v2 frames decode on a v1 receiver
// with the new fields skipped.
type legacyV1QHistSnapshot struct {
	Name    string
	SubBits uint8
	Count   int64
	Sum     int64
	Idx     []uint16
	N       []int64
}

type legacyV1MetricsSnapshot struct {
	Schema int
	Stats  []telemetry.Stat
	Hists  []legacyV1QHistSnapshot
}

type legacyV1MetricsResp struct {
	Snap legacyV1MetricsSnapshot
}

type legacyPreHistoryMessage struct {
	Kind        Kind
	From        addr.Addr
	Query       *legacyQueryReq
	QueryResp   *legacyQueryResp
	MetricsResp *legacyV1MetricsResp
	Error       string
}

// TestDecodeV1SnapshotFrame proves a schema-v1 snapshot frame — produced
// by a peer that predates incarnation stamps and exemplars — decodes
// against the current reader with the absent fields zero.
func TestDecodeV1SnapshotFrame(t *testing.T) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&legacyPreHistoryMessage{
		Kind: KindMetricsResp, From: 7,
		MetricsResp: &legacyV1MetricsResp{Snap: legacyV1MetricsSnapshot{
			Schema: telemetry.MetricsSchemaV1,
			Stats:  []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 33}},
			Hists: []legacyV1QHistSnapshot{{Name: "lat", SubBits: 4, Count: 2,
				Sum: 700, Idx: []uint16{16, 40}, N: []int64{1, 1}}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(body.Len()))
	out.Write(lenb[:])
	out.Write(body.Bytes())

	m, err := ReadMessage(&out)
	if err != nil {
		t.Fatalf("v1 snapshot frame did not decode: %v", err)
	}
	s := m.MetricsResp.Snap
	if s.Schema != telemetry.MetricsSchemaV1 || len(s.Stats) != 1 || len(s.Hists) != 1 {
		t.Fatalf("v1 snapshot mismatch: %+v", s)
	}
	if s.StartEpochNS != 0 || s.UptimeNS != 0 {
		t.Fatalf("absent incarnation stamp decoded non-zero: %+v", s)
	}
	if s.Hists[0].ExIdx != nil || s.Hists[0].ExTrace != nil {
		t.Fatalf("absent exemplars decoded non-nil: %+v", s.Hists[0])
	}
	if !s.SameEpoch(telemetry.MetricsSnapshot{StartEpochNS: 12345}) {
		t.Fatal("zero epoch must compare as unknown-same")
	}
}

// TestOldDecoderIgnoresV2SnapshotFields covers the opposite direction: a
// v2 snapshot with incarnation stamps and exemplars must still decode on
// a v1 receiver, and a history frame must not wedge a pre-history peer.
func TestOldDecoderIgnoresV2SnapshotFields(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Kind: KindMetricsResp, From: 4,
		MetricsResp: &MetricsResp{Snap: telemetry.MetricsSnapshot{
			Schema:       telemetry.MetricsSchemaVersion,
			StartEpochNS: 1700000000123456789, UptimeNS: 5e9,
			Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 8}},
			Hists: []telemetry.QHistSnapshot{{Name: "lat", SubBits: 4, Count: 1,
				Sum: 10, Idx: []uint16{9}, N: []int64{1},
				ExIdx: []uint16{9}, ExTrace: []uint64{0xabcdef}}},
		}}}); err != nil {
		t.Fatal(err)
	}
	var legacy legacyPreHistoryMessage
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[4:])).Decode(&legacy); err != nil {
		t.Fatalf("v1 decoder rejected a v2 snapshot frame: %v", err)
	}
	if legacy.MetricsResp == nil || legacy.MetricsResp.Snap.Hists[0].Count != 1 {
		t.Fatalf("legacy decode mismatch: %+v", legacy.MetricsResp)
	}

	// A history response through a pre-history decoder: the unknown
	// payload field is skipped, the envelope survives.
	var hb bytes.Buffer
	if err := WriteMessage(&hb, &Message{Kind: KindHistoryResp, From: 9,
		HistoryResp: &HistoryResp{Dump: telemetry.HistoryDump{
			Schema: telemetry.MetricsSchemaVersion, IntervalNS: 2e9,
			Points: []telemetry.HistoryPoint{{AtNS: 100, Snap: telemetry.MetricsSnapshot{
				Schema: telemetry.MetricsSchemaVersion}}},
		}}}); err != nil {
		t.Fatal(err)
	}
	var legacy2 legacyPreHistoryMessage
	if err := gob.NewDecoder(bytes.NewReader(hb.Bytes()[4:])).Decode(&legacy2); err != nil {
		t.Fatalf("pre-history decoder rejected a history frame: %v", err)
	}
	if legacy2.Kind != KindHistoryResp || legacy2.From != 9 {
		t.Fatalf("legacy decode mismatch: %+v", legacy2)
	}
}

// TestHistoryRoundTrip pins the gob path for the history pair, including
// the windowed request and the empty history-disabled dump.
func TestHistoryRoundTrip(t *testing.T) {
	var rb bytes.Buffer
	if err := WriteMessage(&rb, &Message{Kind: KindHistory, From: 3,
		History: &HistoryReq{WindowNS: 300e9, MaxPoints: 64}}); err != nil {
		t.Fatal(err)
	}
	req, err := ReadMessage(&rb)
	if err != nil || req.History == nil || req.History.WindowNS != 300e9 || req.History.MaxPoints != 64 {
		t.Fatalf("history request round trip: %+v, %v", req, err)
	}

	m := &Message{Kind: KindHistoryResp, From: 2, HistoryResp: &HistoryResp{
		Dump: telemetry.HistoryDump{
			Schema: telemetry.MetricsSchemaVersion, IntervalNS: 2e9,
			Points: []telemetry.HistoryPoint{
				{AtNS: 1e9, Snap: telemetry.MetricsSnapshot{
					Schema:       telemetry.MetricsSchemaVersion,
					StartEpochNS: 500, UptimeNS: 100,
					Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 1}}}},
				{AtNS: 3e9, Snap: telemetry.MetricsSnapshot{
					Schema:       telemetry.MetricsSchemaVersion,
					StartEpochNS: 500, UptimeNS: 2100,
					Stats: []telemetry.Stat{{Name: "pgrid_rpc_served_total", Value: 5}},
					Hists: []telemetry.QHistSnapshot{{Name: "lat", SubBits: 4, Count: 1,
						Sum: 42, Idx: []uint16{7}, N: []int64{1},
						ExIdx: []uint16{7}, ExTrace: []uint64{0xbeef}}}}},
			},
		}}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := got.HistoryResp.Dump
	if d.Schema != telemetry.MetricsSchemaVersion || d.IntervalNS != 2e9 || len(d.Points) != 2 {
		t.Fatalf("history dump did not round-trip: %+v", d)
	}
	if d.Points[1].Snap.Hists[0].ExTrace[0] != 0xbeef {
		t.Fatalf("exemplar did not round-trip: %+v", d.Points[1].Snap.Hists[0])
	}
	if rate, ok := d.Rate("pgrid_rpc_served_total", 0); !ok || rate != 2 {
		t.Fatalf("round-tripped dump rate = %v, %v; want 2, true", rate, ok)
	}

	// History disabled: empty, schema-stamped dump — distinguishable from
	// a pre-history peer, which answers KindError instead.
	var eb bytes.Buffer
	if err := WriteMessage(&eb, &Message{Kind: KindHistoryResp, From: 2,
		HistoryResp: &HistoryResp{Dump: telemetry.HistoryDump{
			Schema: telemetry.MetricsSchemaVersion}}}); err != nil {
		t.Fatal(err)
	}
	empty, err := ReadMessage(&eb)
	if err != nil || empty.HistoryResp == nil || len(empty.HistoryResp.Dump.Points) != 0 {
		t.Fatalf("empty dump round trip: %+v, %v", empty.HistoryResp, err)
	}
}

func TestHealthRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KindHealthResp, From: 2,
		HealthResp: &HealthResp{
			Rounds: 7,
			Digest: health.Digest{
				Addr: 2, Path: bitpath.MustParse("10"),
				Entries: 5, MaxVersion: 41, IndexHash: 0x1234,
				RefCounts: []int{3, 2}, Buddies: 2,
				Liveness: []health.LevelProbe{
					{Level: 1, Live: 9, Dead: 0},
					{Level: 2, Live: 4, Dead: 2},
				},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := got.HealthResp
	if h == nil || h.Rounds != 7 {
		t.Fatalf("health response did not round-trip: %+v", h)
	}
	d, want := h.Digest, m.HealthResp.Digest
	if d.Addr != want.Addr || d.Path != want.Path || d.Entries != want.Entries ||
		d.MaxVersion != want.MaxVersion || d.IndexHash != want.IndexHash || d.Buddies != want.Buddies {
		t.Fatalf("digest mismatch: %+v vs %+v", d, want)
	}
	if len(d.RefCounts) != 2 || d.RefCounts[0] != 3 || d.RefCounts[1] != 2 {
		t.Fatalf("ref counts did not round-trip: %v", d.RefCounts)
	}
	if len(d.Liveness) != 2 || d.Liveness[0] != want.Liveness[0] || d.Liveness[1] != want.Liveness[1] {
		t.Fatalf("liveness did not round-trip: %+v", d.Liveness)
	}

	// The request side, with and without the liveness flag.
	for _, wantLiveness := range []bool{true, false} {
		var rb bytes.Buffer
		if err := WriteMessage(&rb, &Message{Kind: KindHealth, From: 1,
			Health: &HealthReq{WantLiveness: wantLiveness}}); err != nil {
			t.Fatal(err)
		}
		req, err := ReadMessage(&rb)
		if err != nil {
			t.Fatal(err)
		}
		if req.Health == nil || req.Health.WantLiveness != wantLiveness {
			t.Fatalf("health request did not round-trip: %+v", req.Health)
		}
	}
}
