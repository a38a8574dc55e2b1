package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p4guard/internal/drift"
	"p4guard/internal/dtrace"
	"p4guard/internal/p4"
	"p4guard/internal/packet"
	"p4guard/internal/switchsim"
	"p4guard/internal/telemetry"
)

// writeProfile builds a seeded drift profile fixture on disk.
func writeProfile(t *testing.T, path string, seed int64, shift byte) {
	t.Helper()
	b := drift.NewBuilder([]int{0, 1}, 0)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1500; i++ {
		b.Observe(&packet.Packet{
			Link:  packet.LinkEthernet,
			Bytes: []byte{byte(rng.Intn(64)) + shift, byte(rng.Intn(16)) + shift},
		}, rng.Intn(3), float64(rng.Intn(100))/1024)
	}
	if err := drift.SaveProfile(path, b.Profile()); err != nil {
		t.Fatal(err)
	}
}

// writeJournal writes one journal file holding the given records.
func writeJournal(t *testing.T, path, runID string, recs ...telemetry.JournalRecord) {
	t.Helper()
	j, err := telemetry.OpenJournal(path, runID)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Event(r.Kind, r.Fields); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func rec(kind string, fields any) telemetry.JournalRecord {
	return telemetry.JournalRecord{Kind: kind, Fields: fields}
}

func crossing(shard int, up bool, score float64) telemetry.JournalRecord {
	return rec(drift.CrossRecord, drift.CrossEvent{Shard: shard, Up: up, Score: score, Threshold: 0.25, Observations: 64})
}

func explained(agrees bool) telemetry.JournalRecord {
	v := p4.Verdict{Allowed: false, Class: 2, Digested: true}
	return rec(switchsim.ExplainRecord, switchsim.ExplainSample{
		Explain:       switchsim.Explain{Switch: "gw0", ParsedOK: true, Verdict: v},
		LookupVerdict: v, Agrees: agrees,
	})
}

// spanChain is one digest's trace, the switch's root stage first; with
// orphan set the root is missing, as when one process's journal is.
func spanChain(orphan bool) []telemetry.JournalRecord {
	names := []string{dtrace.StageDigestWait, dtrace.StageFanInWait, dtrace.StageClassify, dtrace.StagePlan, dtrace.StageInstall}
	var out []telemetry.JournalRecord
	for i, name := range names {
		proc := "ctl"
		if i == 0 {
			proc = "gw0"
		}
		if i == 0 && orphan {
			continue
		}
		out = append(out, rec(dtrace.SpanRecord, dtrace.Span{
			Trace: 9, ID: dtrace.SpanID(i + 1), Parent: dtrace.SpanID(i), Name: name,
			Kind: dtrace.KindStage, Proc: proc, StartNs: int64(100 * i), EndNs: int64(100*i + 90),
		}))
	}
	return out
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	same := filepath.Join(dir, "same.json")
	shifted := filepath.Join(dir, "shifted.json")
	writeProfile(t, base, 1, 0)
	writeProfile(t, same, 2, 0)      // different seed, same distribution
	writeProfile(t, shifted, 3, 100) // every byte shifted by 100
	crossedJ := filepath.Join(dir, "crossed.jsonl")
	recoveredJ := filepath.Join(dir, "recovered.jsonl")
	twoShardsJ := filepath.Join(dir, "two-shards.jsonl")
	writeJournal(t, crossedJ, "run-ctl", crossing(0, true, 0.4))
	writeJournal(t, recoveredJ, "run-ctl", crossing(0, true, 0.4), crossing(0, false, 0.1))
	writeJournal(t, twoShardsJ, "run-ctl", crossing(1, true, 0.5), crossing(0, true, 0.4), crossing(0, false, 0.1))
	trainJ := filepath.Join(dir, "train.jsonl")
	writeJournal(t, trainJ, "run-train",
		rec("run_start", map[string]any{"seed": 1, "dataset": "wifi-mqtt"}),
		rec("run_end", map[string]any{"final_accuracy": 0.97}))
	// One file of every kind, as a switch and a controller writing into
	// one journal would leave it, and one whose explain sample disagrees.
	mixed := append([]telemetry.JournalRecord{
		rec("run_start", map[string]any{"seed": 1, "dataset": "wifi-mqtt"}),
		explained(true), explained(true),
		crossing(0, true, 0.4), crossing(0, false, 0.2),
	}, spanChain(false)...)
	mixedJ := filepath.Join(dir, "mixed.jsonl")
	writeJournal(t, mixedJ, "run-mixed", mixed...)
	disagreeJ := filepath.Join(dir, "disagree.jsonl")
	writeJournal(t, disagreeJ, "run-gw0", explained(true), explained(false))
	orphanJ := filepath.Join(dir, "orphan.jsonl")
	writeJournal(t, orphanJ, "run-ctl", spanChain(true)...)
	crashedJ := filepath.Join(dir, "crashed.jsonl")
	whole, err := os.ReadFile(mixedJ)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(crashedJ, whole[:len(whole)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		exit   int
		stderr string // required substring, "" = don't care
		stdout string // required substrings, "|"-separated
	}{
		{name: "no args", args: nil, exit: 2, stderr: "need at least one"},
		{name: "unknown subcommand", args: []string{"frobnicate"}, exit: 2, stderr: "unknown subcommand"},
		{name: "bad flag default", args: []string{"-nope"}, exit: 2},
		{name: "bad flag trace", args: []string{"-slowest", "many", mixedJ}, exit: 2},
		{name: "bad flag drift", args: []string{"drift", "-nope"}, exit: 2},
		{name: "trace missing spans", args: []string{"-check", orphanJ}, exit: 1, stdout: "orphan span"},
		{name: "trace missing spans report only", args: []string{orphanJ}, exit: 0, stdout: "incomplete 1"},
		{name: "drift missing inputs", args: []string{"drift"}, exit: 2, stderr: "need -baseline/-live"},
		{name: "drift baseline without live", args: []string{"drift", "-baseline", base}, exit: 2, stderr: "go together"},
		{name: "journal summary", args: []string{trainJ}, exit: 0, stdout: "run-train"},
		{name: "journal missing file", args: []string{filepath.Join(dir, "nope.jsonl")}, exit: 1},
		{name: "journal cut mid-record", args: []string{crashedJ}, exit: 1, stderr: "keeping 9 clean records", stdout: "== trace =="},
		{name: "mixed journal", args: []string{"-check", mixedJ}, exit: 0,
			stdout: "== runs ==|run-mixed|== explain ==|agreement with lookup: 2/2|== trace ==|complete 1|== drift ==|final state: below"},
		{name: "journals of several processes", args: []string{trainJ, mixedJ, crossedJ}, exit: 0, stdout: "run-train|run-mixed|run-ctl|final state: ABOVE"},
		{name: "explain disagreement", args: []string{disagreeJ}, exit: 1, stdout: "DISAGREEMENT"},
		{name: "drift stable check", args: []string{"drift", "-baseline", base, "-live", same, "-check"}, exit: 0, stdout: "-> ok"},
		{name: "drift shifted report only", args: []string{"drift", "-baseline", base, "-live", shifted}, exit: 0, stdout: "-> DRIFT"},
		{name: "drift shifted check", args: []string{"drift", "-baseline", base, "-live", shifted, "-check"}, exit: 1, stdout: "-> DRIFT"},
		{name: "drift missing profile", args: []string{"drift", "-baseline", base, "-live", filepath.Join(dir, "nope.json")}, exit: 1},
		{name: "drift journal crossed check", args: []string{"-check", crossedJ}, exit: 1, stdout: "ABOVE"},
		{name: "drift journal recovered check", args: []string{"-check", recoveredJ}, exit: 0, stdout: "below"},
		{name: "drift journal one shard still up", args: []string{"-check", twoShardsJ}, exit: 1, stdout: "ABOVE"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.exit, stdout.String(), stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q missing %q", stderr.String(), tc.stderr)
			}
			for _, want := range strings.Split(tc.stdout, "|") {
				if !strings.Contains(stdout.String(), want) {
					t.Fatalf("stdout %q missing %q", stdout.String(), want)
				}
			}
		})
	}
}
