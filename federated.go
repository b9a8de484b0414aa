package gasf

import (
	"context"
	"errors"
	"sync"

	"gasf/internal/federate"
	"gasf/internal/server"
)

// Federated is the Broker over a multi-broker core/edge topology
// (DESIGN.md §15): publishers are routed to the core that owns their
// source (consistent-hash placement over the source name), and
// subscribers are routed to an edge chosen by rendezvous hashing of
// their group key — so every member of a group lands on the same edge
// and the group's filtered stream crosses the core→edge link exactly
// once, however many subscribers share it.
//
// The handle is a thin router over per-node Remote handles, so every
// Dial option (WithReconnect, WithDialTimeout, ...) applies to the
// underlying sessions unchanged.
type Federated struct {
	topo  *federate.Topology
	edges []federate.Node
	opts  []Option

	mu      sync.Mutex
	remotes map[string]*Remote
	closed  bool
}

var _ Broker = (*Federated)(nil)

// FederationConfig places a server in a federated deployment via
// ServerConfig.Federation; the zero value runs a standalone node. Under
// PolicyDegrade, the sessions an edge serves from one upstream leg (one
// app and spec) degrade together: the core's governor sees the leg as a
// single member, and the edge runs no governor of its own.
type FederationConfig = server.FederationConfig

// FederationRole is a server's role in a federated deployment.
type FederationRole = federate.Role

// Federation roles for FederationConfig.Role.
const (
	// RoleSingle is a standalone server (the default).
	RoleSingle = federate.RoleSingle
	// RoleCore owns sources placed on it by the core ring and serves
	// relay legs to edges.
	RoleCore = federate.RoleCore
	// RoleEdge holds subscriber sessions and deduplicates groups over
	// one upstream leg per (core, group).
	RoleEdge = federate.RoleEdge
)

// FederationNode is one named peer in a federation peer list.
type FederationNode = federate.Node

// ParsePeers reads a federation peer list in "name=addr,name=addr"
// notation, as taken by gasf-server -peers and DialFederated.
func ParsePeers(s string) ([]FederationNode, error) { return federate.ParsePeers(s) }

// ParseRole reads a federation role name ("single", "core" or "edge").
func ParseRole(s string) (FederationRole, error) { return federate.ParseRole(s) }

// FormatPeers renders a peer list back into the "name=addr,name=addr"
// notation ParsePeers reads.
func FormatPeers(nodes []FederationNode) string { return federate.FormatPeers(nodes) }

// DialFederated returns a Broker over a federated deployment. cores
// and edges are peer lists in "name=addr,name=addr" notation — the
// same notation gasf-server takes via -peers — and the core list must
// match the servers' own, so client-side placement agrees with the
// tier's. Options are validated once and applied to every per-node
// session.
func DialFederated(cores, edges string, opts ...Option) (*Federated, error) {
	coreNodes, err := federate.ParsePeers(cores)
	if err != nil {
		return nil, err
	}
	edgeNodes, err := federate.ParsePeers(edges)
	if err != nil {
		return nil, err
	}
	topo, err := federate.NewTopology(coreNodes)
	if err != nil {
		return nil, err
	}
	if _, err := resolveBrokerConfig(true, opts); err != nil {
		return nil, err
	}
	return &Federated{
		topo:    topo,
		edges:   edgeNodes,
		opts:    opts,
		remotes: make(map[string]*Remote),
	}, nil
}

// remote returns (dialing lazily) the cached handle for one node.
func (f *Federated) remote(addr string) (*Remote, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errBrokerClosed
	}
	if r := f.remotes[addr]; r != nil {
		return r, nil
	}
	r, err := Dial(addr, f.opts...)
	if err != nil {
		return nil, err
	}
	f.remotes[addr] = r
	return r, nil
}

// OpenSource implements Broker: the publisher session lands on the
// core the placement ring assigns the source to.
func (f *Federated) OpenSource(ctx context.Context, name string, schema *Schema) (Source, error) {
	r, err := f.remote(f.topo.Owner(name).Addr)
	if err != nil {
		return nil, err
	}
	return r.OpenSource(ctx, name, schema)
}

// Subscribe implements Broker: the session lands on the edge chosen by
// rendezvous hashing of the group key (source, app, canonical spec).
// Routing by group is what makes the dedup global — every subscriber
// of a group reaches the same edge, so the whole deployment carries
// one upstream leg per (core, group).
func (f *Federated) Subscribe(ctx context.Context, app, source, spec string, opts ...SubOption) (Subscription, error) {
	sp, err := specFor(spec)
	if err != nil {
		return nil, err
	}
	edge, err := federate.EdgeFor(federate.GroupKey(source, app, sp.String()), f.edges)
	if err != nil {
		return nil, err
	}
	r, err := f.remote(edge.Addr)
	if err != nil {
		return nil, err
	}
	return r.Subscribe(ctx, app, source, spec, opts...)
}

// Close implements Broker: closes every per-node handle (publisher
// sessions finish gracefully, subscriber sessions leave their groups).
// The servers keep running.
func (f *Federated) Close(ctx context.Context) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	open := make([]*Remote, 0, len(f.remotes))
	for _, r := range f.remotes {
		open = append(open, r)
	}
	f.remotes = nil
	f.mu.Unlock()
	var errs []error
	for _, r := range open {
		if err := r.Close(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
