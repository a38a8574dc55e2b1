package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"p4guard/internal/packet"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	pkts := []*packet.Packet{
		{Time: 0, Link: packet.LinkEthernet, Bytes: []byte{1, 2, 3}},
		{Time: 1500 * time.Millisecond, Link: packet.LinkEthernet, Bytes: []byte{4}},
		{Time: 2 * time.Hour, Link: packet.LinkEthernet, Bytes: []byte{}},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != packet.LinkEthernet {
		t.Fatalf("link = %v", r.LinkType())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("got %d packets, want %d", len(got), len(pkts))
	}
	for i, p := range pkts {
		if !bytes.Equal(got[i].Bytes, p.Bytes) {
			t.Errorf("packet %d bytes = %v, want %v", i, got[i].Bytes, p.Bytes)
		}
		if got[i].Time != p.Time {
			t.Errorf("packet %d time = %v, want %v", i, got[i].Time, p.Time)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(bodies [][]byte, microsRaw []int64) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, packet.LinkIEEE802154)
		if err != nil {
			return false
		}
		if len(bodies) > 50 {
			bodies = bodies[:50]
		}
		var want []*packet.Packet
		for i, b := range bodies {
			var us int64
			if i < len(microsRaw) {
				us = microsRaw[i] % (1 << 40)
				if us < 0 {
					us = -us
				}
			}
			p := &packet.Packet{
				Time:  time.Duration(us) * time.Microsecond,
				Link:  packet.LinkIEEE802154,
				Bytes: b,
			}
			if err := w.WritePacket(p); err != nil {
				return false
			}
			want = append(want, p)
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i].Bytes, want[i].Bytes) || got[i].Time != want[i].Time {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRejectsWrongLink(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, packet.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Link: packet.LinkBLE, Bytes: []byte{1}}
	if err := w.WritePacket(p); err == nil {
		t.Fatal("accepted wrong link type")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	bad := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("accepted short header")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, packet.LinkBLE)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(&packet.Packet{Link: packet.LinkBLE, Bytes: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err == nil {
		t.Fatal("accepted truncated record")
	}
}

func TestReadPacketEOF(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, packet.LinkEthernet); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

// TestReadPacketAllocatesWhatArrives: a record header may claim up to the
// snap length, and the body is allocated as its bytes arrive. A 40-byte
// stream — the file header and one record header claiming 262 144 bytes —
// must fail typed having allocated a few KiB, not the claim. Cheapest of
// several runs, read from runtime.MemStats.
func TestReadPacketAllocatesWhatArrives(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, packet.LinkEthernet); err != nil {
		t.Fatal(err)
	}
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[8:], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[12:], maxSnapLen)
	stream := append(buf.Bytes(), hdr[:]...)
	cheapest := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.ReadPacket()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d-byte stream claiming %d bytes: %v, want a cut-short error", len(stream), maxSnapLen, err)
		}
		cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
	}
	if cheapest > 8<<10 {
		t.Fatalf("a %d-byte stream claiming %d bytes allocated %d bytes before its error", len(stream), maxSnapLen, cheapest)
	}
}

// FuzzPcapRoundTrip holds the writer to what the reader accepts: a packet
// WritePacket takes reads back with the same bytes and its time truncated
// to the microsecond, and one it refuses is refused typed. Any byte stream
// given to the reader ends in io.EOF or a typed error, without a panic.
func FuzzPcapRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3}, int64(1500*time.Millisecond), []byte{})
	f.Add([]byte{}, int64(-time.Second), []byte("garbage"))
	f.Add(make([]byte, maxSnapLen+1), int64(0), []byte{})
	f.Add([]byte{4}, int64(1<<32*time.Second), []byte{})
	var stream bytes.Buffer
	w, _ := NewWriter(&stream, packet.LinkBLE)
	_ = w.WritePacket(&packet.Packet{Time: time.Hour + 7, Link: packet.LinkBLE, Bytes: []byte{9, 9}})
	f.Add([]byte{5}, int64(time.Nanosecond), stream.Bytes())
	f.Add([]byte{5}, int64(0), stream.Bytes()[:len(stream.Bytes())-1])

	f.Fuzz(func(t *testing.T, body []byte, ns int64, stream []byte) {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, packet.LinkEthernet)
		if err != nil {
			t.Fatal(err)
		}
		p := &packet.Packet{Time: time.Duration(ns), Link: packet.LinkEthernet, Bytes: body}
		if err := w.WritePacket(p); err != nil {
			if !errors.Is(err, ErrRecord) {
				t.Fatalf("WritePacket(%d bytes at %v): untyped %v", len(body), p.Time, err)
			}
		} else {
			r, err := NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ReadPacket()
			if err != nil {
				t.Fatalf("%d bytes at %v were written but read back as %v", len(body), p.Time, err)
			}
			if !bytes.Equal(got.Bytes, body) || got.Time != p.Time.Truncate(time.Microsecond) || got.Link != p.Link {
				t.Fatalf("wrote %d bytes at %v, read %d bytes at %v", len(body), p.Time, len(got.Bytes), got.Time)
			}
			if _, err := r.ReadPacket(); err != io.EOF {
				t.Fatalf("after the one record: %v, want io.EOF", err)
			}
		}

		r, err := NewReader(bytes.NewReader(stream))
		for err == nil {
			_, err = r.ReadPacket()
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrBadMagic) &&
			!errors.Is(err, ErrLink) && !errors.Is(err, ErrRecord) {
			t.Fatalf("stream %x: untyped %v", stream, err)
		}
	})
}
