package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rchdroid/internal/experiments"
)

// summaryMeasured is the measured column of experiments.Summary() as
// recorded when the benchmark was defined: the sim-clock numbers the
// reproduction stands on (the 89.2 ms steady flip among them). A speed-up
// must leave every one of them identical.
//
//go:embed summary_measured.txt
var summaryMeasured string

// summaryText renders the measured column, one quantity per line.
func summaryText() string {
	var sb strings.Builder
	for _, row := range experiments.Summary().PerRow {
		fmt.Fprintf(&sb, "%s\t%s\n", row.Quantity, row.Measured)
	}
	return sb.String()
}

// checkSummary fails when the measured column drifts from the recorded
// copy.
func checkSummary() error {
	got := summaryText()
	if got == summaryMeasured {
		return nil
	}
	want := strings.Split(summaryMeasured, "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(want) || line != want[i] {
			w := "<missing>"
			if i < len(want) {
				w = want[i]
			}
			return fmt.Errorf("experiments.Summary() drifted at line %d: got %q, recorded %q", i+1, line, w)
		}
	}
	return fmt.Errorf("experiments.Summary() drifted: %d lines recorded, fewer produced", len(want))
}

// sourceDigest hashes every Go source and module file under root, in
// path order, so a result names the exact code it measured even where
// the checkout carries no commit.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "artifacts") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
