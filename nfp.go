// Package nfp is a Go implementation of NFP ("NFP: Enabling Network
// Function Parallelism in NFV", SIGCOMM 2017): a framework that
// compiles operator chaining policies into service graphs whose
// independent network functions execute in parallel, and an
// infrastructure that runs those graphs over shared-memory packet
// references with light-weight copying and load-balanced merging.
//
// The package is a facade over the internal subsystems:
//
//	policy      Order / Priority / Position rules (§3)
//	nfa         NF action model, Table 2/3, Algorithm 1 (§4.1–4.3)
//	core        the orchestrator: policy → service graph (§4.4)
//	graph       service graph algebra (Seq / Par / NF)
//	dataplane   classifier, NF runtimes, joins (§5)
//	nf          the evaluation NFs (§6.1)
//	sim         calibrated analytic model for the paper's figures
//
// # Quickstart
//
//	sys := nfp.NewSystem()
//	pol := nfp.FromChain("ids", "monitor", "lb")
//	res, err := sys.Compile(pol, nfp.CompileOptions{})
//	// res.Graph is ids -> monitor -> lb: res.Stages says monitor || lb
//	// saves less than its copy and merge cost
//	srv := sys.NewServer(nfp.ServerConfig{})
//	srv.AddGraph(1, res.Graph)
//	srv.Start()
//	// build packets in srv.Pool() buffers, srv.Inject them, read
//	// srv.Output(), then srv.Stop().
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper's evaluation.
package nfp

import (
	"fmt"
	"io"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/inspector"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
)

// --- Policy layer (§3) ---

// Policy is an ordered set of chaining rules.
type Policy = policy.Policy

// Rule is a single Order/Priority/Position rule.
type Rule = policy.Rule

// Place is the operand of a Position rule.
type Place = policy.Place

// Position placements.
const (
	First = policy.First
	Last  = policy.Last
)

// Order constructs Order(nf1, before, nf2).
func Order(nf1, nf2 string) Rule { return policy.Order(nf1, nf2) }

// Priority constructs Priority(high > low).
func Priority(high, low string) Rule { return policy.Priority(high, low) }

// Position constructs Position(nf, first|last).
func Position(name string, place Place) Rule { return policy.Position(name, place) }

// FromChain converts a traditional sequential chain into Order rules.
func FromChain(nfs ...string) Policy { return policy.FromChain(nfs...) }

// ParsePolicy reads the textual rule syntax of Table 1.
func ParsePolicy(r io.Reader) (Policy, error) { return policy.Parse(r) }

// ParsePolicyString parses a policy from a string.
func ParsePolicyString(s string) (Policy, error) { return policy.ParseString(s) }

// --- Action model (§4.1–4.3) ---

// Profile is an NF's action profile (one Table 2 row).
type Profile = nfa.Profile

// Action is a single (operation, field) pair.
type Action = nfa.Action

// Field names a packet region.
type Field = packet.Field

// Commonly used fields.
const (
	FieldSrcIP   = packet.FieldSrcIP
	FieldDstIP   = packet.FieldDstIP
	FieldSrcPort = packet.FieldSrcPort
	FieldDstPort = packet.FieldDstPort
	FieldTTL     = packet.FieldTTL
	FieldPayload = packet.FieldPayload
	FieldAH      = packet.FieldAH
)

// Action constructors.
var (
	ReadAction  = nfa.Read
	WriteAction = nfa.Write
	AddRmAction = nfa.AddRm
	DropAction  = nfa.Drop
)

// Evaluation NF type names (§6.1).
const (
	NFL3Forwarder  = nfa.NFL3Fwd
	NFLoadBalancer = nfa.NFLB
	NFFirewall     = nfa.NFFirewall
	NFIDS          = nfa.NFIDS
	NFNIDS         = nfa.NFNIDS
	NFVPN          = nfa.NFVPN
	NFMonitor      = nfa.NFMonitor
	NFNAT          = nfa.NFNAT
	NFSynthetic    = nfa.NFSynthetic
)

// --- Service graphs ---

// ServiceGraph is a compiled service graph node.
type ServiceGraph = graph.Node

// NFNode, SeqNode and ParNode are the graph constructors.
type (
	NFNode  = graph.NF
	SeqNode = graph.Seq
	ParNode = graph.Par
)

// EquivalentLength returns the longest NF path through a graph.
func EquivalentLength(g ServiceGraph) int { return graph.EquivalentLength(g) }

// TotalCopies returns the packet copies a graph makes per packet.
func TotalCopies(g ServiceGraph) int { return graph.TotalCopies(g) }

// GraphDOT renders a graph in Graphviz syntax.
func GraphDOT(g ServiceGraph, name string) string { return graph.DOT(g, name) }

// --- Orchestrator (§4) ---

// CompileOptions tunes the orchestrator.
type CompileOptions = core.Options

// CompileResult is a compiled graph plus operator warnings.
type CompileResult = core.Result

// --- Infrastructure (§5) ---

// ServerConfig sizes an NFP dataplane server.
type ServerConfig = dataplane.Config

// Server is the NFP dataplane.
type Server = dataplane.Server

// Packet is a packet reference in a pool buffer.
type Packet = packet.Packet

// BuildSpec describes a synthetic packet.
type BuildSpec = packet.BuildSpec

// BuildPacketInto encodes spec into a pool packet's buffer.
func BuildPacketInto(p *Packet, spec BuildSpec) { packet.BuildInto(p, spec) }

// NetworkFunction is the NF implementation interface.
type NetworkFunction = nf.NF

// NFFactory constructs fresh NF instances.
type NFFactory = nf.Factory

// --- System: registration + compilation + servers ---

// System bundles an NF registry (implementations) with a profile
// catalog (orchestrator knowledge). The zero value is not usable; call
// NewSystem, which pre-registers the paper's evaluation NFs.
type System struct {
	registry *nf.Registry
	profiles map[string]Profile
}

// NewSystem creates a System with the evaluation NFs registered.
func NewSystem() *System {
	return &System{
		registry: nf.NewRegistry(),
		profiles: map[string]Profile{},
	}
}

// RegisterNF adds a custom NF: its action profile (for the
// orchestrator) and its factory (for the dataplane). Registering an
// existing name overrides it.
func (s *System) RegisterNF(name string, prof Profile, factory NFFactory) error {
	if err := s.registry.Register(name, factory); err != nil {
		return err
	}
	prof.Name = name
	s.profiles[name] = prof
	return nil
}

// InspectAndRegisterNF derives the profile from the NF's Go source via
// the §5.4 action inspector, then registers it.
func (s *System) InspectAndRegisterNF(name, sourcePath string, factory NFFactory) (Profile, error) {
	prof, err := inspector.InspectFile(name, sourcePath)
	if err != nil {
		return Profile{}, err
	}
	if err := s.RegisterNF(name, prof, factory); err != nil {
		return Profile{}, err
	}
	return prof, nil
}

// Profile resolves an NF name to its action profile, preferring custom
// registrations over the built-in catalog.
func (s *System) Profile(name string) (Profile, bool) {
	if p, ok := s.profiles[name]; ok {
		return p, true
	}
	return nfa.LookupProfile(name)
}

// Compile runs the orchestrator on a policy.
func (s *System) Compile(pol Policy, opts CompileOptions) (*CompileResult, error) {
	return core.Compile(pol, s.Profile, opts)
}

// NewServer creates a dataplane server whose NF instances come from
// this system's registry.
func (s *System) NewServer(cfg ServerConfig) *Server {
	cfg.Registry = s.registry
	return dataplane.New(cfg)
}

// Deploy is the one-call path: compile the policy, create a server,
// and install the graph under MID 1.
func (s *System) Deploy(pol Policy, copts CompileOptions, scfg ServerConfig) (*Server, *CompileResult, error) {
	res, err := s.Compile(pol, copts)
	if err != nil {
		return nil, nil, err
	}
	srv := s.NewServer(scfg)
	if err := srv.AddGraph(1, res.Graph); err != nil {
		return nil, nil, fmt.Errorf("nfp: installing compiled graph: %w", err)
	}
	return srv, res, nil
}
