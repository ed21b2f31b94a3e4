package main

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestConfigValidateRoleMatrix(t *testing.T) {
	writer := func() Config { return Config{Role: roleWriter, In: "g.txt"} }
	replica := func() Config { return Config{Role: roleReplica, Upstream: "http://w:8080"} }
	router := func() Config {
		return Config{Role: roleRouter, Upstream: "http://w:8080", Replicas: []string{"http://r:8081"}}
	}

	cases := []struct {
		name   string
		cfg    Config
		wantIs error // nil = valid
	}{
		{"writer ok", writer(), nil},
		{"replica ok", replica(), nil},
		{"router ok", router(), nil},
		{"unknown role", Config{Role: "observer"}, ErrBadRole},
		{"empty role", Config{}, ErrBadRole},
		{"writer without -in", Config{Role: roleWriter}, ErrMissingFlag},
		{"writer with -upstream", func() Config { c := writer(); c.Upstream = "http://x"; return c }(), ErrRoleConflict},
		{"writer with -replicas", func() Config { c := writer(); c.Replicas = []string{"http://x"}; return c }(), ErrRoleConflict},
		{"replica without -upstream", Config{Role: roleReplica}, ErrMissingFlag},
		{"replica with -in", func() Config { c := replica(); c.In = "g.txt"; return c }(), ErrRoleConflict},
		{"replica with -data-dir", func() Config { c := replica(); c.Server.DataDir = "/tmp/x"; return c }(), ErrRoleConflict},
		{"replica with -checkpoint-interval", func() Config { c := replica(); c.Server.CheckpointInterval = time.Minute; return c }(), ErrRoleConflict},
		{"replica with -replicas", func() Config { c := replica(); c.Replicas = []string{"http://x"}; return c }(), ErrRoleConflict},
		{"router without -upstream", Config{Role: roleRouter, Replicas: []string{"http://x"}}, ErrMissingFlag},
		{"router without -replicas", Config{Role: roleRouter, Upstream: "http://w"}, ErrMissingFlag},
		{"router with -in", func() Config { c := router(); c.In = "g.txt"; return c }(), ErrRoleConflict},
		{"router with -data-dir", func() Config { c := router(); c.Server.DataDir = "/tmp/x"; return c }(), ErrRoleConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantIs == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.wantIs) {
				t.Fatalf("error %v, want errors.Is(%v)", err, tc.wantIs)
			}
		})
	}
}

func TestSplitList(t *testing.T) {
	for raw, want := range map[string][]string{
		"":                      nil,
		"http://a":              {"http://a"},
		"http://a,http://b":     {"http://a", "http://b"},
		" http://a , http://b ": {"http://a", "http://b"},
		",,http://a,,":          {"http://a"},
	} {
		if got := splitList(raw); !reflect.DeepEqual(got, want) {
			t.Errorf("splitList(%q) = %v, want %v", raw, got, want)
		}
	}
}
