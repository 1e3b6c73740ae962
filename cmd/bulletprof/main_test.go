package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestModelFlag(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stdout (exit 0) or stderr (otherwise)
	}{
		{"stray", []string{"stray", "-model", "tiny"}, 2, `bulletprof: unexpected arguments ["stray" "-model" "tiny"]`},
		{"unknown", []string{"-model", "bogus"}, 1, `unknown model "bogus" (have llama-3.1-8b, llama-3.2-3b, mistral-7b, qwen2-7b, tiny)`},
		{"tiny", []string{"-model", "tiny"}, 0, "model    tiny"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != c.code {
				t.Fatalf("run(%v) exit %d, want %d\nstdout: %s\nstderr: %s", c.args, code, c.code, out.String(), errb.String())
			}
			got, other := out.String(), errb.String()
			if c.code != 0 {
				got, other = other, got
			}
			if !strings.Contains(got, c.want) {
				t.Errorf("run(%v) printed %q, want it to contain %q", c.args, got, c.want)
			}
			if other != "" {
				t.Errorf("run(%v) also printed %q to the other stream", c.args, other)
			}
		})
	}
}
