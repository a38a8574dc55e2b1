package packet

import "testing"

// Fuzz targets: every codec must reject arbitrary input gracefully (no
// panic, no over-read) and, when it accepts, report a consumed length
// within bounds. Run continuously with `go test -fuzz=FuzzMQTT` etc.;
// under plain `go test` the seed corpus below executes as unit tests.

func fuzzSeedFrames() [][]byte {
	eth := Ethernet{EtherType: EtherTypeIPv4}
	ip := IPv4{TTL: 64, Protocol: ProtoTCP}
	tcp := TCP{SrcPort: 1, DstPort: 1883, Flags: TCPSyn}
	frame := eth.Marshal(nil)
	frame = ip.Marshal(frame, TCPLen)
	frame = tcp.Marshal(frame)

	mqtt := MQTT{Type: MQTTConnect, ClientID: "seed"}
	dns := DNS{ID: 1, Name: "a.b.c", QType: 1, QClass: 1}
	coap := CoAP{Type: CoAPConfirmable, Code: CoAPGet, MessageID: 9, Token: []byte{1}}
	iphc := SixLowPANHdr{NextHeader: ProtoUDP, HopLimit: 64, Src16: 1, Dst16: 2}
	frag := SixLowPANFrag{First: true, DatagramSize: 100, DatagramTag: 7}
	ble := BLELinkLayer{AccessAddress: BLEAdvAccessAddress, PDUType: BLEAdvInd}

	return [][]byte{
		frame,
		mqtt.Marshal(nil),
		dns.Marshal(nil),
		coap.Marshal(nil),
		iphc.Marshal(nil),
		frag.Marshal(nil),
		ble.Marshal(nil),
		{}, {0xff}, {0x00, 0x00},
	}
}

// decoder adapts every codec to one fuzz body.
type decoder struct {
	name string
	fn   func(b []byte) (int, error)
}

func allDecoders() []decoder {
	return []decoder{
		{"ethernet", func(b []byte) (int, error) { var h Ethernet; return h.Unmarshal(b) }},
		{"arp", func(b []byte) (int, error) { var h ARP; return h.Unmarshal(b) }},
		{"ipv4", func(b []byte) (int, error) { var h IPv4; return h.Unmarshal(b) }},
		{"tcp", func(b []byte) (int, error) { var h TCP; return h.Unmarshal(b) }},
		{"udp", func(b []byte) (int, error) { var h UDP; return h.Unmarshal(b) }},
		{"icmp", func(b []byte) (int, error) { var h ICMP; return h.Unmarshal(b) }},
		{"dns", func(b []byte) (int, error) { var h DNS; return h.Unmarshal(b) }},
		{"mqtt", func(b []byte) (int, error) { var h MQTT; return h.Unmarshal(b) }},
		{"coap", func(b []byte) (int, error) { var h CoAP; return h.Unmarshal(b) }},
		{"802154", func(b []byte) (int, error) { var h IEEE802154; return h.Unmarshal(b) }},
		{"zigbee", func(b []byte) (int, error) { var h ZigbeeNWK; return h.Unmarshal(b) }},
		{"ble", func(b []byte) (int, error) { var h BLELinkLayer; return h.Unmarshal(b) }},
		{"6lowpan-iphc", func(b []byte) (int, error) { var h SixLowPANHdr; return h.Unmarshal(b) }},
		{"6lowpan-frag", func(b []byte) (int, error) { var h SixLowPANFrag; return h.Unmarshal(b) }},
		{"nhc-udp", func(b []byte) (int, error) { var h CompressedUDP; return h.Unmarshal(b) }},
	}
}

func FuzzAllCodecs(f *testing.F) {
	for _, seed := range fuzzSeedFrames() {
		f.Add(seed)
	}
	decs := allDecoders()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range decs {
			n, err := d.fn(data)
			if err != nil {
				continue
			}
			if n < 0 || n > len(data) {
				t.Fatalf("%s: consumed %d of %d bytes", d.name, n, len(data))
			}
		}
	})
}

// FuzzParserEthernet drives header-vector extraction with arbitrary
// Ethernet frames.
func FuzzParserEthernet(f *testing.F) {
	for _, seed := range fuzzSeedFrames() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &Packet{Link: LinkEthernet, Bytes: data}
		// HeaderVector/HeaderBits must be total functions.
		if got := len(p.HeaderVector()); got != HeaderWindow {
			t.Fatalf("header vector len %d", got)
		}
		if got := len(p.HeaderBitsVector()); got != HeaderWindow*8 {
			t.Fatalf("header bits len %d", got)
		}
	})
}
