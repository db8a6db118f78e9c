package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// readRecord returns the record line of a saved benchmark output.
func readRecord(path string) (*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"record":`) {
			continue
		}
		var wrap map[string]record
		if err := json.Unmarshal(line, &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rec := wrap["record"]
		return &rec, nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return nil, fmt.Errorf("%s: no record line", path)
}

// compareRecords prints each metric of two records side by side. It
// warns first when the records come from different machines or kernel
// paths, or when either carries a warning of its own, since their
// numbers are then not comparable.
func compareRecords(w io.Writer, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	for _, d := range a.Fingerprint.diff(b.Fingerprint) {
		fmt.Fprintln(w, "WARNING: different fingerprint:", d)
	}
	for _, x := range []*record{a, b} {
		for _, m := range x.Warnings {
			fmt.Fprintf(w, "WARNING: %s seed %d: %s\n", x.Workload, x.Seed, m)
		}
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(w, "WARNING: different workloads: %s vs %s\n", a.Workload, b.Workload)
	}
	for _, name := range sortedKeys(a.Metrics) {
		ma := a.Metrics[name]
		mb, ok := b.Metrics[name]
		if !ok {
			continue
		}
		delta := ""
		if ma.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (mb.Value-ma.Value)/ma.Value*100)
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %-10s %s\n", name, ma.Value, mb.Value, ma.Unit, delta)
	}
	return nil
}
