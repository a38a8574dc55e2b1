package p4rt

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// injectUnknownFields adds n random unknown keys to a JSON object.
func injectUnknownFields(t *testing.T, raw []byte, rng *rand.Rand, n int) []byte {
	t.Helper()
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("reparse: %v", err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("x_future_%d_%d", rng.Intn(1000), i)
		switch rng.Intn(4) {
		case 0:
			obj[key] = rng.Int63()
		case 1:
			obj[key] = fmt.Sprintf("v%d", rng.Int31())
		case 2:
			obj[key] = []any{rng.Intn(10), "s", true}
		default:
			obj[key] = map[string]any{"nested": rng.Intn(100)}
		}
	}
	out, err := json.Marshal(obj)
	if err != nil {
		t.Fatalf("remarshal: %v", err)
	}
	return out
}

// TestUnknownWireFieldsTolerated: seeded-random unknown keys injected
// into every message type's JSON — a row-carrying body's head included —
// must neither fail decoding nor perturb the known fields: a field added
// within a protocol version is skipped by a peer that does not know it.
func TestUnknownWireFieldsTolerated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		wantW := Write{TraceID: uint64(round), SpanID: uint64(round + 1)}
		raw, err := json.Marshal(wantW)
		if err != nil {
			t.Fatal(err)
		}
		var gotW Write
		if err := json.Unmarshal(injectUnknownFields(t, raw, rng, 1+rng.Intn(5)), &gotW); err != nil {
			t.Fatalf("round %d: write decode: %v", round, err)
		}
		if gotW.TraceID != wantW.TraceID || gotW.SpanID != wantW.SpanID {
			t.Fatalf("round %d: write = %+v, want %+v", round, gotW, wantW)
		}

		wantP := programHead{&Program{Offsets: []int{round}, DefaultAction: "drop", TraceID: uint64(round)}, round}
		if raw, err = json.Marshal(wantP); err != nil {
			t.Fatal(err)
		}
		gotP := programHead{&Program{}, -1}
		if err := json.Unmarshal(injectUnknownFields(t, raw, rng, 1+rng.Intn(5)), &gotP); err != nil {
			t.Fatalf("round %d: program head decode: %v", round, err)
		}
		if !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("round %d: program head = %+v, want %+v", round, gotP, wantP)
		}

		wantR := Response{OK: round%2 == 0, Installed: round, TraceID: uint64(round)}
		raw, err = json.Marshal(wantR)
		if err != nil {
			t.Fatal(err)
		}
		var gotR Response
		if err := json.Unmarshal(injectUnknownFields(t, raw, rng, 1+rng.Intn(5)), &gotR); err != nil {
			t.Fatalf("round %d: response decode: %v", round, err)
		}
		if gotR.OK != wantR.OK || gotR.Installed != wantR.Installed || gotR.TraceID != wantR.TraceID {
			t.Fatalf("round %d: response = %+v, want %+v", round, gotR, wantR)
		}

		wantD := DigestMsg{Packets: []WirePacket{{TimeNS: int64(round), Bytes: []byte{200, byte(round)}, TraceID: uint64(round + 2)}}}
		raw, err = json.Marshal(wantD)
		if err != nil {
			t.Fatal(err)
		}
		var gotD DigestMsg
		if err := json.Unmarshal(injectUnknownFields(t, raw, rng, 1+rng.Intn(5)), &gotD); err != nil {
			t.Fatalf("round %d: digest decode: %v", round, err)
		}
		if len(gotD.Packets) != 1 || gotD.Packets[0].TraceID != uint64(round+2) {
			t.Fatalf("round %d: digest = %+v", round, gotD)
		}

		// Envelope-level unknown fields must be tolerated too.
		env, err := json.Marshal(Envelope{Type: TypeWrite, ID: uint64(round), Body: json.RawMessage(`{}`)})
		if err != nil {
			t.Fatal(err)
		}
		var gotE Envelope
		if err := json.Unmarshal(injectUnknownFields(t, env, rng, 1+rng.Intn(3)), &gotE); err != nil {
			t.Fatalf("round %d: envelope decode: %v", round, err)
		}
		if gotE.Type != TypeWrite || gotE.ID != uint64(round) {
			t.Fatalf("round %d: envelope = %+v", round, gotE)
		}
	}
}

// TestStatsRPCOverWire: the stats RPC returns the switch's data-plane
// snapshot with name and node populated, and the digest queue invariant
// Offered == Drained + Dropped + Depth holds in the scraped view.
func TestStatsRPCOverWire(t *testing.T) {
	_, _, cl := startPair(t, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	st, err := cl.SwitchStats(ctx)
	if err != nil {
		t.Fatalf("SwitchStats: %v", err)
	}
	if st.Name != "gw-test" {
		t.Fatalf("scraped stats name = %q, want gw-test", st.Name)
	}
	if st.DigestOffered != st.DigestDrained+st.DigestDropped+uint64(st.DigestDepth) {
		t.Fatalf("digest queue invariant violated in scrape: %+v", st)
	}
}
