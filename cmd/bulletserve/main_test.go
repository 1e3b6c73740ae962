package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunArguments(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"stray-before-flags", []string{"stray", "-addr", "127.0.0.1:18089"}, 2,
			`bulletserve: unexpected arguments ["stray" "-addr" "127.0.0.1:18089"]`},
		{"stray-after-flags", []string{"-addr", "127.0.0.1:18089", "stray"}, 2,
			`bulletserve: unexpected arguments ["stray"]`},
		{"unknown-flag", []string{"-port", "8080"}, 2, "flag provided but not defined: -port"},
		{"bad-address", []string{"-addr", "127.0.0.1:99999"}, 1, "bulletserve: server exited: listen tcp: address 99999: invalid port"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var errb bytes.Buffer
			if code := run(c.args, &errb); code != c.code {
				t.Fatalf("run(%v) exit %d, want %d\nstderr: %s", c.args, code, c.code, errb.String())
			}
			if got := errb.String(); !strings.Contains(got, c.want) {
				t.Errorf("run(%v) printed %q, want it to contain %q", c.args, got, c.want)
			}
			if c.code == 2 && strings.Contains(errb.String(), "listening") {
				t.Errorf("run(%v) started listening before rejecting its arguments", c.args)
			}
		})
	}
}
