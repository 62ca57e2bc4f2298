package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vdm/internal/experiments"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(experiments.Groups(), "\n") + "\n"
	if out.String() != want {
		t.Fatalf("-list printed\n%s\nwant\n%s", out.String(), want)
	}
}

// TestRejectedFlags pins the command lines that are errors rather than
// silently running something else.
func TestRejectedFlags(t *testing.T) {
	for _, args := range []string{
		"-group ch5-mst -format jsn",
		"-group ch5-mstt",
		"-fig 5.99",
		"-reps 1",
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(args), &out); err == nil {
			t.Errorf("experiments %s: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("experiments %s: printed %q before failing", args, out.String())
		}
	}
}

// TestJSONMatchesText checks that -format json carries the tables the text
// run prints: the decoded tables, formatted, are the text output.
func TestJSONMatchesText(t *testing.T) {
	args := strings.Fields("-group ch5-mst -reps 1 -timescale 0.06 -ratescale 0.3")
	var text, js bytes.Buffer
	if err := run(args, &text); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-format", "json"), &js); err != nil {
		t.Fatal(err)
	}
	var tables []*experiments.Table
	if err := json.Unmarshal(js.Bytes(), &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "5.31" || len(tables[0].Points) != 5 {
		t.Fatalf("decoded %d tables, want figure 5.31 with 5 points", len(tables))
	}
	var formatted strings.Builder
	for _, tb := range tables {
		formatted.WriteString(tb.Format() + "\n")
	}
	if formatted.String() != text.String() {
		t.Fatalf("JSON tables format as\n%s\ntext run printed\n%s", formatted.String(), text.String())
	}
}
