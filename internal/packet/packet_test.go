package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderVectorPadding(t *testing.T) {
	p := &Packet{Bytes: []byte{255, 128}}
	v := p.HeaderVector()
	if len(v) != HeaderWindow {
		t.Fatalf("len = %d, want %d", len(v), HeaderWindow)
	}
	if v[0] != 1 || v[1] != 128.0/255 || v[2] != 0 {
		t.Fatalf("vector head = %v", v[:3])
	}
}

func TestHeaderBytesTruncation(t *testing.T) {
	long := make([]byte, HeaderWindow+10)
	for i := range long {
		long[i] = byte(i)
	}
	p := &Packet{Bytes: long}
	hb := p.HeaderBytes()
	if len(hb) != HeaderWindow {
		t.Fatalf("len = %d", len(hb))
	}
	if hb[HeaderWindow-1] != byte(HeaderWindow-1) {
		t.Fatalf("last byte = %d", hb[HeaderWindow-1])
	}
}

func TestByteAtOutOfRange(t *testing.T) {
	p := &Packet{Bytes: []byte{7}}
	if p.ByteAt(0) != 7 || p.ByteAt(1) != 0 || p.ByteAt(-1) != 0 {
		t.Fatal("ByteAt bounds handling wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	p := &Packet{Time: time.Second, Link: LinkEthernet, Bytes: []byte{1, 2}}
	c := p.Clone()
	c.Bytes[0] = 9
	if p.Bytes[0] != 1 {
		t.Fatal("Clone aliases Bytes")
	}
}

func TestLinkTypeDLTRoundTrip(t *testing.T) {
	for _, l := range []LinkType{LinkEthernet, LinkIEEE802154, LinkBLE} {
		got, err := LinkTypeFromDLT(l.DLT())
		if err != nil || got != l {
			t.Fatalf("DLT round-trip %v: got %v, err %v", l, got, err)
		}
		if l.String() == "" {
			t.Fatalf("empty name for %d", l)
		}
	}
	if _, err := LinkTypeFromDLT(9999); err == nil {
		t.Fatal("LinkTypeFromDLT accepted unknown DLT")
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, et uint16) bool {
		h := Ethernet{Dst: dst, Src: src, EtherType: et}
		wire := h.Marshal(nil)
		var got Ethernet
		n, err := got.Unmarshal(wire)
		return err == nil && n == EthernetLen && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var h Ethernet
	if _, err := h.Unmarshal(make([]byte, 13)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestARPRoundTrip(t *testing.T) {
	f := func(op uint16, sm [6]byte, si [4]byte, tm [6]byte, ti [4]byte) bool {
		a := ARP{Op: op, SenderMAC: sm, SenderIP: si, TargetMAC: tm, TargetIP: ti}
		wire := a.Marshal(nil)
		var got ARP
		n, err := got.Unmarshal(wire)
		return err == nil && n == ARPLen && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	f := func(tos byte, id uint16, flags byte, frag uint16, ttl, proto byte, src, dst [4]byte, payloadLen uint8) bool {
		h := IPv4{
			TOS: tos, ID: id, Flags: flags & 0x7, FragOff: frag & 0x1fff,
			TTL: ttl, Protocol: proto, Src: src, Dst: dst,
		}
		wire := h.Marshal(nil, int(payloadLen))
		var got IPv4
		n, err := got.Unmarshal(wire)
		if err != nil || n != IPv4Len {
			return false
		}
		// Checksum must validate: recomputing over the header with the
		// checksum field zeroed must reproduce the stored value.
		zeroed := append([]byte(nil), wire...)
		zeroed[10], zeroed[11] = 0, 0
		if ipChecksum(zeroed) != got.Checksum {
			return false
		}
		return got.TOS == h.TOS && got.ID == h.ID && got.Flags == h.Flags &&
			got.FragOff == h.FragOff && got.TTL == h.TTL && got.Protocol == h.Protocol &&
			got.Src == h.Src && got.Dst == h.Dst &&
			got.TotalLen == uint16(IPv4Len+int(payloadLen))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4RejectsBadVersionAndIHL(t *testing.T) {
	var h IPv4
	b := make([]byte, IPv4Len)
	b[0] = 0x65 // version 6
	if _, err := h.Unmarshal(b); err == nil {
		t.Fatal("accepted version 6")
	}
	b[0] = 0x43 // version 4, IHL 3 (<5)
	if _, err := h.Unmarshal(b); err == nil {
		t.Fatal("accepted IHL 3")
	}
	b[0] = 0x46 // IHL 6 but only 20 bytes present
	if _, err := h.Unmarshal(b); !errors.Is(err, ErrTruncated) {
		t.Fatal("accepted truncated options")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags byte, win, urg uint16) bool {
		h := TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Window: win, Urgent: urg}
		wire := h.Marshal(nil)
		var got TCP
		n, err := got.Unmarshal(wire)
		return err == nil && n == TCPLen && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUDPICMPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 5683, DstPort: 5683}
	wire := u.Marshal(nil, 10)
	var gu UDP
	if _, err := gu.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if gu.Length != UDPLen+10 || gu.SrcPort != 5683 {
		t.Fatalf("udp decode = %+v", gu)
	}

	var gi ICMP // an echo request: type 8, checksum 0xf7ef, id 7, seq 9
	if _, err := gi.Unmarshal([]byte{8, 0, 0xf7, 0xef, 0, 7, 0, 9}); err != nil {
		t.Fatal(err)
	}
	if gi.Type != 8 || gi.ID != 7 || gi.Seq != 9 {
		t.Fatalf("icmp decode = %+v", gi)
	}
}

func TestDNSRoundTrip(t *testing.T) {
	d := DNS{ID: 0x1234, Flags: 0x0100, Name: "sensor.iot.example.com", QType: 1, QClass: 1}
	wire := d.Marshal(nil)
	var got DNS
	n, err := got.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d", n, len(wire))
	}
	if got != d {
		t.Fatalf("got %+v, want %+v", got, d)
	}
}

func TestDNSRejectsCompressedLabels(t *testing.T) {
	d := DNS{ID: 1, Name: "a.b"}
	wire := d.Marshal(nil)
	wire[DNSHeaderLen] = 0xc0 // compression pointer
	var got DNS
	if _, err := got.Unmarshal(wire); err == nil {
		t.Fatal("accepted compression pointer")
	}
}

func TestDNSLongLabelTruncatedAtMarshal(t *testing.T) {
	long := make([]byte, 100)
	for i := range long {
		long[i] = 'a'
	}
	d := DNS{Name: string(long)}
	wire := d.Marshal(nil)
	var got DNS
	if _, err := got.Unmarshal(wire); err != nil {
		t.Fatal(err)
	}
	if len(got.Name) != 63 {
		t.Fatalf("label length %d, want 63", len(got.Name))
	}
}

func TestMQTTConnectRoundTrip(t *testing.T) {
	m := MQTT{Type: MQTTConnect, ClientID: "plug-kitchen-01"}
	wire := m.Marshal(nil)
	var got MQTT
	n, err := got.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) || got.Type != MQTTConnect || got.ClientID != m.ClientID {
		t.Fatalf("got %+v (n=%d)", got, n)
	}
}

func TestMQTTPublishRoundTrip(t *testing.T) {
	f := func(topicRaw []byte, payload []byte) bool {
		if len(topicRaw) > 200 || len(payload) > 200 {
			return true
		}
		topic := string(topicRaw)
		m := MQTT{Type: MQTTPublish, Topic: topic, Payload: payload}
		wire := m.Marshal(nil)
		var got MQTT
		n, err := got.Unmarshal(wire)
		if err != nil || n != len(wire) {
			return false
		}
		return got.Topic == topic && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMQTTVarintMultiByte(t *testing.T) {
	payload := make([]byte, 300) // forces a 2-byte remaining-length varint
	m := MQTT{Type: MQTTPublish, Topic: "t", Payload: payload}
	wire := m.Marshal(nil)
	var got MQTT
	n, err := got.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) || len(got.Payload) != 300 {
		t.Fatalf("n=%d payload=%d", n, len(got.Payload))
	}
}

func TestMQTTTruncatedBody(t *testing.T) {
	m := MQTT{Type: MQTTPublish, Topic: "home/temp", Payload: []byte("21.5")}
	wire := m.Marshal(nil)
	var got MQTT
	if _, err := got.Unmarshal(wire[:len(wire)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestCoAPRoundTrip(t *testing.T) {
	f := func(typ, code byte, mid uint16, token, payload []byte) bool {
		if len(token) > 8 {
			token = token[:8]
		}
		if len(payload) > 100 {
			return true
		}
		c := CoAP{Type: typ & 0x3, Code: code, MessageID: mid, Token: token, Payload: payload}
		wire := c.Marshal(nil)
		var got CoAP
		if _, err := got.Unmarshal(wire); err != nil {
			return false
		}
		return got.Type == c.Type && got.Code == c.Code && got.MessageID == mid &&
			bytes.Equal(got.Token, token) && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIEEE802154RoundTrip(t *testing.T) {
	f := func(ft byte, sec, ack bool, seq byte, pan, dst, src uint16) bool {
		h := IEEE802154{FrameType: ft & 0x7, Security: sec, AckReq: ack, Seq: seq, PANID: pan, Dst: dst, Src: src}
		wire := h.Marshal(nil)
		var got IEEE802154
		n, err := got.Unmarshal(wire)
		return err == nil && n == IEEE802154Len && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigbeeNWKRoundTrip(t *testing.T) {
	f := func(ft byte, dst, src uint16, radius, seq byte) bool {
		h := ZigbeeNWK{FrameType: ft & 0x3, Dst: dst, Src: src, Radius: radius, Seq: seq}
		wire := h.Marshal(nil)
		var got ZigbeeNWK
		n, err := got.Unmarshal(wire)
		return err == nil && n == ZigbeeNWKLen && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBLERoundTrip(t *testing.T) {
	f := func(pdu byte, txadd bool, adva [6]byte, payload []byte) bool {
		if len(payload) > 31 {
			payload = payload[:31]
		}
		h := BLELinkLayer{
			AccessAddress: BLEAdvAccessAddress,
			PDUType:       pdu & 0x0f, TxAdd: txadd, AdvAddr: adva,
			Payload: payload,
		}
		wire := h.Marshal(nil)
		var got BLELinkLayer
		n, err := got.Unmarshal(wire)
		if err != nil || n != len(wire) {
			return false
		}
		return got.AccessAddress == h.AccessAddress && got.PDUType == h.PDUType &&
			got.TxAdd == txadd && got.AdvAddr == adva && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBLETruncated(t *testing.T) {
	var h BLELinkLayer
	if _, err := h.Unmarshal(make([]byte, 11)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestFieldDictCoversWindow(t *testing.T) {
	for _, link := range []LinkType{LinkEthernet, LinkIEEE802154, LinkBLE} {
		dict := FieldDict(link)
		if len(dict) == 0 {
			t.Fatalf("%v: empty dict", link)
		}
		covered := make([]bool, HeaderWindow)
		for _, f := range dict {
			for i := f.Offset; i < f.Offset+f.Width && i < HeaderWindow; i++ {
				if covered[i] {
					t.Errorf("%v: byte %d covered twice", link, i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Errorf("%v: byte %d uncovered", link, i)
			}
		}
	}
}

func TestNameForAndDescribe(t *testing.T) {
	if got := NameFor(LinkEthernet, 23); got != "ip.proto" {
		t.Fatalf("NameFor(23) = %q", got)
	}
	if got := NameFor(LinkEthernet, 26); got != "ip.src[0]" {
		t.Fatalf("NameFor(26) = %q", got)
	}
	if got := NameFor(LinkType(99), 5); got != "byte5" {
		t.Fatalf("NameFor unknown link = %q", got)
	}
	desc := DescribeOffsets(LinkEthernet, []int{23, 47})
	if desc != "ip.proto, tcp.flags" {
		t.Fatalf("DescribeOffsets = %q", desc)
	}
}

func TestFiveTupleOffsets(t *testing.T) {
	offs := FiveTupleOffsets(LinkEthernet)
	if len(offs) != 1+4+4+2+2 {
		t.Fatalf("ethernet 5-tuple has %d bytes", len(offs))
	}
	for _, off := range offs {
		name := NameFor(LinkEthernet, off)
		switch {
		case name == "ip.proto",
			len(name) > 6 && (name[:6] == "ip.src" || name[:6] == "ip.dst"),
			len(name) > 8 && (name[:8] == "l4.sport" || name[:8] == "l4.dport"):
		default:
			t.Errorf("unexpected 5-tuple byte %d (%s)", off, name)
		}
	}
	if len(FiveTupleOffsets(LinkIEEE802154)) == 0 || len(FiveTupleOffsets(LinkBLE)) == 0 {
		t.Fatal("low-power analogues empty")
	}
	if FiveTupleOffsets(LinkType(99)) != nil {
		t.Fatal("unknown link should have nil offsets")
	}
}

// TestEthernetIPv4TCPStackOffsets builds a full frame and checks the field
// dictionary's assumed offsets match the real encoders.
func TestEthernetIPv4TCPStackOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_ = rng
	eth := Ethernet{EtherType: EtherTypeIPv4}
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}}
	tcp := TCP{SrcPort: 49152, DstPort: 1883, Flags: TCPSyn}

	frame := eth.Marshal(nil)
	frame = ip.Marshal(frame, TCPLen)
	frame = tcp.Marshal(frame)

	if frame[23] != ProtoTCP {
		t.Fatalf("ip.proto at 23 = %d", frame[23])
	}
	if frame[26] != 10 || frame[29] != 1 {
		t.Fatalf("ip.src at 26 = %v", frame[26:30])
	}
	if got := uint16(frame[36])<<8 | uint16(frame[37]); got != 1883 {
		t.Fatalf("l4.dport at 36 = %d", got)
	}
	if frame[47] != TCPSyn {
		t.Fatalf("tcp.flags at 47 = %d", frame[47])
	}
}
