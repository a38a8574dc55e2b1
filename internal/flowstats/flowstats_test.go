package flowstats

import (
	"math"
	"testing"
	"time"

	"p4guard/internal/packet"
)

func tcpFrame(sip, dip [4]byte, sport, dport uint16, flags byte) []byte {
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: sip, Dst: dip}
	tcp := packet.TCP{SrcPort: sport, DstPort: dport, Flags: flags}
	b := eth.Marshal(nil)
	b = ip.Marshal(b, packet.TCPLen)
	return tcp.Marshal(b)
}

func TestKeyDirectionSymmetric(t *testing.T) {
	fwd := &packet.Packet{Link: packet.LinkEthernet,
		Bytes: tcpFrame([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 1000, 80, packet.TCPSyn)}
	rev := &packet.Packet{Link: packet.LinkEthernet,
		Bytes: tcpFrame([4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 1}, 80, 1000, packet.TCPAck)}
	kf, ok1 := KeyFor(fwd)
	kr, ok2 := KeyFor(rev)
	if !ok1 || !ok2 {
		t.Fatal("keying failed")
	}
	if kf != kr {
		t.Fatalf("forward %v != reverse %v", kf, kr)
	}
}

func TestDistinctFlowsDistinctKeys(t *testing.T) {
	a := &packet.Packet{Link: packet.LinkEthernet,
		Bytes: tcpFrame([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 1000, 80, 0)}
	b := &packet.Packet{Link: packet.LinkEthernet,
		Bytes: tcpFrame([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 1001, 80, 0)}
	ka, _ := KeyFor(a)
	kb, _ := KeyFor(b)
	if ka == kb {
		t.Fatal("different source ports share a key")
	}
}

func TestKeyForLowPowerLinks(t *testing.T) {
	mac := packet.IEEE802154{FrameType: packet.FrameData, PANID: 5, Dst: 1, Src: 2}
	zp := &packet.Packet{Link: packet.LinkIEEE802154, Bytes: mac.Marshal(nil)}
	if _, ok := KeyFor(zp); !ok {
		t.Fatal("zigbee frame not keyed")
	}
	rev := packet.IEEE802154{FrameType: packet.FrameData, PANID: 5, Dst: 2, Src: 1}
	zr := &packet.Packet{Link: packet.LinkIEEE802154, Bytes: rev.Marshal(nil)}
	k1, _ := KeyFor(zp)
	k2, _ := KeyFor(zr)
	if k1 != k2 {
		t.Fatal("zigbee keys not direction symmetric")
	}

	ll := packet.BLELinkLayer{AccessAddress: packet.BLEAdvAccessAddress, PDUType: packet.BLEAdvInd,
		AdvAddr: packet.MAC{1, 2, 3, 4, 5, 6}}
	bp := &packet.Packet{Link: packet.LinkBLE, Bytes: ll.Marshal(nil)}
	if _, ok := KeyFor(bp); !ok {
		t.Fatal("ble frame not keyed")
	}
	if _, ok := KeyFor(&packet.Packet{Link: packet.LinkBLE, Bytes: []byte{1}}); ok {
		t.Fatal("truncated ble frame keyed")
	}
}

func TestARPKeyedByMAC(t *testing.T) {
	eth := packet.Ethernet{EtherType: packet.EtherTypeARP,
		Src: packet.MAC{1, 1, 1, 1, 1, 1}, Dst: packet.MAC{2, 2, 2, 2, 2, 2}}
	a := packet.ARP{Op: packet.ARPRequest}
	frame := a.Marshal(eth.Marshal(nil))
	if _, ok := KeyFor(&packet.Packet{Link: packet.LinkEthernet, Bytes: frame}); !ok {
		t.Fatal("ARP frame not keyed")
	}
}

func TestTrackerFeatures(t *testing.T) {
	tr := NewTracker()
	sip, dip := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	var feats []float64
	for i := 0; i < 5; i++ {
		pkt := &packet.Packet{
			Link:  packet.LinkEthernet,
			Time:  time.Duration(i) * 10 * time.Millisecond,
			Bytes: tcpFrame(sip, dip, 1000, 80, packet.TCPSyn),
		}
		feats = tr.Update(pkt)
	}
	if len(feats) != 10 {
		t.Fatalf("feature width %d", len(feats))
	}
	if feats[0] != 5 {
		t.Fatalf("pkt_count = %v", feats[0])
	}
	if math.Abs(feats[2]-0.04) > 1e-9 {
		t.Fatalf("duration = %v, want 0.04", feats[2])
	}
	if math.Abs(feats[3]-10) > 1e-9 {
		t.Fatalf("mean IAT = %v ms, want 10", feats[3])
	}
	if math.Abs(feats[4]) > 1e-9 {
		t.Fatalf("std IAT = %v, want 0 for uniform spacing", feats[4])
	}
	if math.Abs(feats[8]-1.0) > 1e-9 {
		t.Fatalf("syn_frac = %v, want 1", feats[8])
	}
	if tr.Flows() != 1 {
		t.Fatalf("%d flows", tr.Flows())
	}
}

func TestTrackerSeparatesFlows(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 3; i++ {
		tr.Update(&packet.Packet{Link: packet.LinkEthernet,
			Bytes: tcpFrame([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, uint16(1000+i), 80, 0)})
	}
	if tr.Flows() != 3 {
		t.Fatalf("%d flows, want 3", tr.Flows())
	}
}

func TestUnkeyablePacketsShareCatchAll(t *testing.T) {
	tr := NewTracker()
	f1 := tr.Update(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{1, 2}})
	f2 := tr.Update(&packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{3}})
	if f2[0] != 2 {
		t.Fatalf("catch-all flow count = %v, want 2", f2[0])
	}
	_ = f1
}

func TestIsSynDetection(t *testing.T) {
	syn := &packet.Packet{Link: packet.LinkEthernet,
		Bytes: tcpFrame([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, 2, packet.TCPSyn)}
	if !isSyn(syn) {
		t.Fatal("SYN not detected")
	}
	synack := &packet.Packet{Link: packet.LinkEthernet,
		Bytes: tcpFrame([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, 2, packet.TCPSyn|packet.TCPAck)}
	if isSyn(synack) {
		t.Fatal("SYN-ACK misdetected as SYN")
	}
}
