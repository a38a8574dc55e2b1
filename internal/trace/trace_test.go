package trace

import (
	"testing"
	"time"

	"p4guard/internal/packet"
)

func mkPkt(link packet.LinkType, firstByte byte, at time.Duration) *packet.Packet {
	return &packet.Packet{Time: at, Link: link, Bytes: []byte{firstByte, 0, 0}}
}

func mkDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	d := &Dataset{Name: "test"}
	for i := 0; i < n; i++ {
		label := LabelBenign
		attack := ""
		if i%3 == 0 {
			label = LabelAttack
			attack = "synflood"
		}
		s := Sample{Pkt: mkPkt(packet.LinkEthernet, byte(i), time.Duration(n-i)*time.Millisecond), Label: label, Attack: attack}
		if err := d.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAppendEnforcesLink(t *testing.T) {
	d := mkDataset(t, 3)
	err := d.Append(Sample{Pkt: mkPkt(packet.LinkBLE, 0, 0)})
	if err == nil {
		t.Fatal("accepted mixed link types")
	}
	if err := d.Append(Sample{}); err == nil {
		t.Fatal("accepted nil packet")
	}
}

func TestSplit(t *testing.T) {
	d := mkDataset(t, 10)
	train, test, err := d.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 7 || test.Len() != 3 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if _, _, err := d.Split(0); err == nil {
		t.Fatal("accepted trainFrac 0")
	}
	if _, _, err := d.Split(1); err == nil {
		t.Fatal("accepted trainFrac 1")
	}
}

func TestClassCountsAndKinds(t *testing.T) {
	d := mkDataset(t, 9)
	counts := d.ClassCounts()
	if counts[LabelAttack] != 3 || counts[LabelBenign] != 6 {
		t.Fatalf("counts = %v", counts)
	}
	kinds := d.AttackKinds()
	if len(kinds) != 1 || kinds[0] != "synflood" {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestBinaryLabels(t *testing.T) {
	d := &Dataset{}
	if err := d.Append(Sample{Pkt: mkPkt(packet.LinkEthernet, 0, 0), Label: Label(5)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(Sample{Pkt: mkPkt(packet.LinkEthernet, 1, 0), Label: LabelBenign}); err != nil {
		t.Fatal(err)
	}
	ys := d.BinaryLabels()
	if ys[0] != 1 || ys[1] != 0 {
		t.Fatalf("BinaryLabels = %v", ys)
	}
}

func TestMultiLabels(t *testing.T) {
	d := &Dataset{}
	add := func(label Label, attack string) {
		if err := d.Append(Sample{Pkt: mkPkt(packet.LinkEthernet, 0, 0), Label: label, Attack: attack}); err != nil {
			t.Fatal(err)
		}
	}
	add(LabelBenign, "")
	add(LabelAttack, "syn-flood")
	add(LabelAttack, "arp-spoof")
	add(LabelAttack, "syn-flood")
	add(LabelAttack, "") // unlabelled attack

	ys, kinds := d.MultiLabels()
	if len(kinds) != 3 || kinds[0] != "arp-spoof" || kinds[1] != "syn-flood" || kinds[2] != "attack-other" {
		t.Fatalf("kinds = %v", kinds)
	}
	want := []int{0, 2, 1, 2, 3}
	for i, y := range want {
		if ys[i] != y {
			t.Fatalf("ys = %v, want %v", ys, want)
		}
	}
}

func TestHeaderBitMatrixAndSelectColumnsBits(t *testing.T) {
	d := &Dataset{}
	p := &packet.Packet{Link: packet.LinkEthernet, Bytes: []byte{0b1000_0001, 0xff}}
	if err := d.Append(Sample{Pkt: p}); err != nil {
		t.Fatal(err)
	}
	bm := d.HeaderBitMatrix()
	if bm.Cols != packet.HeaderWindow*8 {
		t.Fatalf("bit matrix cols %d", bm.Cols)
	}
	row := bm.Row(0)
	if row[0] != 1 || row[1] != 0 || row[7] != 1 || row[8] != 1 {
		t.Fatalf("bit expansion wrong: %v", row[:16])
	}
	sel, err := d.SelectColumnsBits([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cols != 16 {
		t.Fatalf("selected bit cols %d", sel.Cols)
	}
	r := sel.Row(0)
	for i := 0; i < 8; i++ {
		if r[i] != 1 {
			t.Fatalf("byte 1 bits = %v", r[:8])
		}
	}
	if r[8] != 1 || r[15] != 1 || r[9] != 0 {
		t.Fatalf("byte 0 bits = %v", r[8:])
	}
	if _, err := d.SelectColumnsBits([]int{-1}); err == nil {
		t.Fatal("accepted negative offset")
	}
}

func TestHeaderMatrixAndSelectColumns(t *testing.T) {
	d := mkDataset(t, 4)
	m := d.HeaderMatrix()
	if m.Rows != 4 || m.Cols != packet.HeaderWindow {
		t.Fatalf("matrix %dx%d", m.Rows, m.Cols)
	}
	if m.Row(2)[0] != 2.0/255 {
		t.Fatalf("m[2][0] = %v", m.Row(2)[0])
	}
	sel, err := d.SelectColumns([]int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cols != 2 || sel.Row(3)[0] != 3.0/255 || sel.Row(3)[1] != 0 {
		t.Fatalf("select = %v", sel.Row(3))
	}
	if _, err := d.SelectColumns([]int{packet.HeaderWindow}); err == nil {
		t.Fatal("accepted out-of-window offset")
	}
	if _, err := d.SelectColumns([]int{-1}); err == nil {
		t.Fatal("accepted negative offset")
	}
}

func TestMerge(t *testing.T) {
	a := mkDataset(t, 3)
	b := mkDataset(t, 2)
	m, err := Merge("merged", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 5 || m.Link != packet.LinkEthernet {
		t.Fatalf("merged %d/%v", m.Len(), m.Link)
	}
	c := &Dataset{}
	if err := c.Append(Sample{Pkt: mkPkt(packet.LinkBLE, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge("bad", a, c); err == nil {
		t.Fatal("merged mixed link types")
	}
}

func TestSortByTime(t *testing.T) {
	d := mkDataset(t, 5) // built with descending timestamps
	d.SortByTime()
	for i := 1; i < d.Len(); i++ {
		if d.Samples[i].Pkt.Time < d.Samples[i-1].Pkt.Time {
			t.Fatal("not sorted by time")
		}
	}
}
