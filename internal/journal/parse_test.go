package journal_test

import (
	"strings"
	"testing"

	"repro/internal/explore"
)

// Journal strategy lists are parsed by the journal row of the explore
// axis table.
func TestParseNames(t *testing.T) {
	got, err := explore.JournalAxis.Parse(" word-eager , ,page-lazy ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "word-eager" || got[1] != "page-lazy" {
		t.Fatalf("got %v", got)
	}
	_, err = explore.JournalAxis.Parse("word-eager,bogus")
	if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "page-lazy") {
		t.Fatalf("want unknown-name error with full vocabulary, got %v", err)
	}
}
