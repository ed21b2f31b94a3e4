package main

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Roles a reccd process can run as. A writer owns the graph and accepts
// mutations; a replica warm-restores from a writer's snapshot and tails its
// WAL; a router fans query batches out over healthy replicas.
const (
	roleWriter  = "writer"
	roleReplica = "replica"
	roleRouter  = "router"
)

// Typed validation errors, so tests (and wrapping scripts parsing stderr)
// can distinguish a missing flag from a nonsensical combination. Their text
// carries no "reccd: " prefix: main logs each with exactly one.
var (
	// ErrBadRole rejects a -role outside {writer, replica, router}.
	ErrBadRole = errors.New("unknown role")
	// ErrMissingFlag rejects a role started without a flag it requires.
	ErrMissingFlag = errors.New("missing required flag")
	// ErrRoleConflict rejects a flag that contradicts the chosen role.
	ErrRoleConflict = errors.New("flag conflicts with role")
)

// Config is the full validated flag surface of reccd. Validate enforces the
// role matrix before any work starts, so a mis-assembled replica set fails
// fast at boot instead of serving wrong answers.
type Config struct {
	// Role selects the process mode: writer (default), replica, or router.
	Role string
	// In is the input edge-list file (writer only).
	In string
	// Listen is the HTTP listen address.
	Listen string
	// Eps/Dim/HullCap/Seed configure the index build (writer only; replicas
	// inherit the writer's parameters through the shipped snapshot).
	Eps     float64
	Dim     int
	HullCap int
	Seed    int64
	// Upstream is the writer's base URL (replica and router).
	Upstream string
	// Replicas are replica base URLs the router spreads reads over.
	Replicas []string
	// PollInterval is the replica WAL-tail poll period and the router
	// health-check period (0 = role default).
	PollInterval time.Duration
	// Server holds the request-handling knobs shared by every role.
	Server serverConfig
}

// Validate checks the role matrix. It returns the first violation, wrapped
// around the typed sentinel that classifies it.
func (c *Config) Validate() error {
	switch c.Role {
	case roleWriter:
		if c.In == "" {
			return fmt.Errorf("%w: -role=writer needs -in", ErrMissingFlag)
		}
		if c.Upstream != "" {
			return fmt.Errorf("%w: -upstream is for replicas and routers", ErrRoleConflict)
		}
		if len(c.Replicas) > 0 {
			return fmt.Errorf("%w: -replicas is for routers", ErrRoleConflict)
		}
		if c.Server.CheckpointInterval != 0 && c.Server.DataDir == "" {
			return fmt.Errorf("%w: -checkpoint-interval needs -data-dir to checkpoint into", ErrMissingFlag)
		}
	case roleReplica:
		if c.Upstream == "" {
			return fmt.Errorf("%w: -role=replica needs -upstream", ErrMissingFlag)
		}
		if c.In != "" {
			return fmt.Errorf("%w: a replica takes its graph from the writer, not -in", ErrRoleConflict)
		}
		if c.Server.DataDir != "" {
			return fmt.Errorf("%w: a replica's state is the writer's; -data-dir is writer-only", ErrRoleConflict)
		}
		if c.Server.CheckpointInterval != 0 {
			return fmt.Errorf("%w: replicas never checkpoint; -checkpoint-interval is writer-only", ErrRoleConflict)
		}
		if len(c.Replicas) > 0 {
			return fmt.Errorf("%w: -replicas is for routers", ErrRoleConflict)
		}
	case roleRouter:
		if c.Upstream == "" {
			return fmt.Errorf("%w: -role=router needs -upstream (the writer)", ErrMissingFlag)
		}
		if len(c.Replicas) == 0 {
			return fmt.Errorf("%w: -role=router needs -replicas", ErrMissingFlag)
		}
		if c.In != "" {
			return fmt.Errorf("%w: a router holds no index; drop -in", ErrRoleConflict)
		}
		if c.Server.DataDir != "" {
			return fmt.Errorf("%w: a router holds no index; drop -data-dir", ErrRoleConflict)
		}
		if c.Server.CheckpointInterval != 0 {
			return fmt.Errorf("%w: a router holds no index; drop -checkpoint-interval", ErrRoleConflict)
		}
	default:
		return fmt.Errorf("%w: %q (want writer, replica or router)", ErrBadRole, c.Role)
	}
	return nil
}

// splitList parses a comma-separated flag value into its non-empty parts.
func splitList(raw string) []string {
	var out []string
	for _, p := range strings.Split(raw, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
