package p4

import (
	"fmt"

	"p4guard/internal/packet"
)

// ParsedHeader is one header instance located by the parser.
type ParsedHeader struct {
	Name   string
	Offset int
	Length int
}

// ParseResult is the parser's output for one frame.
type ParseResult struct {
	Headers []ParsedHeader
	// Accepted reports whether the frame reached an accepting state.
	Accepted bool
}

// ParseState is one node of a parse graph: it extracts a header and picks
// the next state from the frame contents.
type ParseState struct {
	Name string
	// Extract returns the header length consumed at off, or an error when
	// the frame does not decode.
	Extract func(frame []byte, off int) (int, error)
	// Next returns the next state name, or "" to accept.
	Next func(frame []byte, off, hdrLen int) string
}

// Parser is a P4-style parse graph.
type Parser struct {
	states map[string]*ParseState
	start  string
}

// NewParser builds a parser starting at the named state.
func NewParser(start string, states ...*ParseState) (*Parser, error) {
	m := make(map[string]*ParseState, len(states))
	for _, s := range states {
		if _, dup := m[s.Name]; dup {
			return nil, fmt.Errorf("p4: duplicate parse state %q", s.Name)
		}
		m[s.Name] = s
	}
	if _, ok := m[start]; !ok {
		return nil, fmt.Errorf("p4: start state %q undefined", start)
	}
	return &Parser{states: m, start: start}, nil
}

// Parse runs the graph over the frame. A state chain longer than the state
// count is treated as a loop and rejected.
func (p *Parser) Parse(frame []byte) ParseResult {
	var res ParseResult
	off := 0
	cur := p.start
	for steps := 0; steps <= len(p.states); steps++ {
		st, ok := p.states[cur]
		if !ok {
			return res // dangling transition: reject
		}
		n, err := st.Extract(frame, off)
		if err != nil {
			return res
		}
		res.Headers = append(res.Headers, ParsedHeader{Name: st.Name, Offset: off, Length: n})
		next := st.Next(frame, off, n)
		off += n
		if next == "" {
			res.Accepted = true
			return res
		}
		cur = next
	}
	return res // loop guard tripped: reject
}

// Accepts runs the graph over the frame and reports only whether it
// reaches an accepting state. Unlike Parse it records no headers, so the
// data-plane hot path pays no allocation for parse accounting.
func (p *Parser) Accepts(frame []byte) bool {
	off := 0
	cur := p.start
	for steps := 0; steps <= len(p.states); steps++ {
		st, ok := p.states[cur]
		if !ok {
			return false // dangling transition: reject
		}
		n, err := st.Extract(frame, off)
		if err != nil {
			return false
		}
		next := st.Next(frame, off, n)
		off += n
		if next == "" {
			return true
		}
		cur = next
	}
	return false // loop guard tripped: reject
}

// StandardParser returns the parse graph for a link type, covering the
// protocol stacks the IoT scenarios use.
func StandardParser(link packet.LinkType) (*Parser, error) {
	switch link {
	case packet.LinkEthernet:
		return NewParser("ethernet",
			&ParseState{
				Name: "ethernet",
				Extract: func(f []byte, off int) (int, error) {
					var h packet.Ethernet
					return h.Unmarshal(f[min(off, len(f)):])
				},
				Next: func(f []byte, off, n int) string {
					var h packet.Ethernet
					if _, err := h.Unmarshal(f[off:]); err != nil {
						return "reject"
					}
					switch h.EtherType {
					case packet.EtherTypeIPv4:
						return "ipv4"
					case packet.EtherTypeARP:
						return "arp"
					default:
						return ""
					}
				},
			},
			&ParseState{
				Name: "arp",
				Extract: func(f []byte, off int) (int, error) {
					var h packet.ARP
					if off > len(f) {
						return 0, packet.ErrTruncated
					}
					return h.Unmarshal(f[off:])
				},
				Next: func([]byte, int, int) string { return "" },
			},
			&ParseState{
				Name: "ipv4",
				Extract: func(f []byte, off int) (int, error) {
					var h packet.IPv4
					if off > len(f) {
						return 0, packet.ErrTruncated
					}
					return h.Unmarshal(f[off:])
				},
				Next: func(f []byte, off, n int) string {
					var h packet.IPv4
					if _, err := h.Unmarshal(f[off:]); err != nil {
						return "reject"
					}
					switch h.Protocol {
					case packet.ProtoTCP:
						return "tcp"
					case packet.ProtoUDP:
						return "udp"
					case packet.ProtoICMP:
						return "icmp"
					default:
						return ""
					}
				},
			},
			&ParseState{
				Name: "tcp",
				Extract: func(f []byte, off int) (int, error) {
					var h packet.TCP
					if off > len(f) {
						return 0, packet.ErrTruncated
					}
					return h.Unmarshal(f[off:])
				},
				Next: func([]byte, int, int) string { return "" },
			},
			&ParseState{
				Name: "udp",
				Extract: func(f []byte, off int) (int, error) {
					var h packet.UDP
					if off > len(f) {
						return 0, packet.ErrTruncated
					}
					return h.Unmarshal(f[off:])
				},
				Next: func([]byte, int, int) string { return "" },
			},
			&ParseState{
				Name: "icmp",
				Extract: func(f []byte, off int) (int, error) {
					var h packet.ICMP
					if off > len(f) {
						return 0, packet.ErrTruncated
					}
					return h.Unmarshal(f[off:])
				},
				Next: func([]byte, int, int) string { return "" },
			},
		)
	case packet.LinkIEEE802154:
		return NewParser("mac",
			&ParseState{
				Name: "mac",
				Extract: func(f []byte, off int) (int, error) {
					var h packet.IEEE802154
					if off > len(f) {
						return 0, packet.ErrTruncated
					}
					return h.Unmarshal(f[off:])
				},
				Next: func(f []byte, off, n int) string {
					var h packet.IEEE802154
					if _, err := h.Unmarshal(f[off:]); err != nil {
						return "reject"
					}
					if h.FrameType == packet.FrameData && len(f) >= off+n+packet.ZigbeeNWKLen {
						return "nwk"
					}
					return ""
				},
			},
			&ParseState{
				Name: "nwk",
				Extract: func(f []byte, off int) (int, error) {
					var h packet.ZigbeeNWK
					if off > len(f) {
						return 0, packet.ErrTruncated
					}
					return h.Unmarshal(f[off:])
				},
				Next: func([]byte, int, int) string { return "" },
			},
		)
	case packet.LinkBLE:
		return NewParser("ll",
			&ParseState{
				Name: "ll",
				Extract: func(f []byte, off int) (int, error) {
					var h packet.BLELinkLayer
					if off > len(f) {
						return 0, packet.ErrTruncated
					}
					return h.Unmarshal(f[off:])
				},
				Next: func([]byte, int, int) string { return "" },
			},
		)
	default:
		return nil, fmt.Errorf("p4: no standard parser for link %v", link)
	}
}
