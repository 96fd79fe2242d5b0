package nf

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"nfp/internal/ahocorasick"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// IDSRule is one parsed detection rule — a practical subset of the
// Snort rule language the paper's IDS models (§6.1):
//
//	action proto src sport -> dst dport (content:"..."; msg:"..."; sid:N;)
//
// with action ∈ {alert, drop}, proto ∈ {tcp, udp, ip}, addresses as
// CIDR or "any", ports as number or "any".
type IDSRule struct {
	Action  string // "alert" or "drop"
	Proto   uint8  // 0 = any
	Src     netip.Prefix
	SrcPort uint16 // 0 = any
	Dst     netip.Prefix
	DstPort uint16
	Content []byte
	Msg     string
	SID     int
}

// matchesHeader reports whether the rule's header constraints cover a
// flow.
func (r IDSRule) matchesHeader(k packet.FlowKey) bool {
	if r.Proto != 0 && r.Proto != k.Proto {
		return false
	}
	if r.Src.IsValid() && !r.Src.Contains(netip.AddrFrom4(k.Src)) {
		return false
	}
	if r.Dst.IsValid() && !r.Dst.Contains(netip.AddrFrom4(k.Dst)) {
		return false
	}
	if r.SrcPort != 0 && r.SrcPort != k.SrcPort {
		return false
	}
	if r.DstPort != 0 && r.DstPort != k.DstPort {
		return false
	}
	return true
}

// ParseIDSRules reads rules one per line; '#' comments and blank lines
// are skipped.
func ParseIDSRules(r io.Reader) ([]IDSRule, error) {
	var rules []IDSRule
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rule, err := parseIDSRule(line)
		if err != nil {
			return nil, fmt.Errorf("ids rules line %d: %w", lineno, err)
		}
		rules = append(rules, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rules, nil
}

func parseIDSRule(line string) (IDSRule, error) {
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ")") {
		return IDSRule{}, fmt.Errorf("missing option block: %q", line)
	}
	head := strings.Fields(line[:open])
	if len(head) != 7 || head[4] != "->" {
		return IDSRule{}, fmt.Errorf("header must be 'action proto src sport -> dst dport', got %q", line[:open])
	}
	var rule IDSRule

	switch head[0] {
	case "alert", "drop":
		rule.Action = head[0]
	default:
		return IDSRule{}, fmt.Errorf("unknown action %q", head[0])
	}
	switch head[1] {
	case "tcp":
		rule.Proto = packet.ProtoTCP
	case "udp":
		rule.Proto = packet.ProtoUDP
	case "ip":
		rule.Proto = 0
	default:
		return IDSRule{}, fmt.Errorf("unknown proto %q", head[1])
	}
	var err error
	if rule.Src, err = parseAddr(head[2]); err != nil {
		return IDSRule{}, err
	}
	if rule.SrcPort, err = parsePort(head[3]); err != nil {
		return IDSRule{}, err
	}
	if rule.Dst, err = parseAddr(head[5]); err != nil {
		return IDSRule{}, err
	}
	if rule.DstPort, err = parsePort(head[6]); err != nil {
		return IDSRule{}, err
	}

	opts := line[open+1 : len(line)-1]
	for _, opt := range splitOptions(opts) {
		key, val, _ := strings.Cut(opt, ":")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "content":
			content, err := unquote(val)
			if err != nil {
				return IDSRule{}, fmt.Errorf("content: %w", err)
			}
			rule.Content = []byte(content)
		case "msg":
			msg, err := unquote(val)
			if err != nil {
				return IDSRule{}, fmt.Errorf("msg: %w", err)
			}
			rule.Msg = msg
		case "sid":
			sid, err := strconv.Atoi(val)
			if err != nil {
				return IDSRule{}, fmt.Errorf("sid: %w", err)
			}
			rule.SID = sid
		case "":
			// tolerate trailing ';'
		default:
			return IDSRule{}, fmt.Errorf("unknown option %q", key)
		}
	}
	if len(rule.Content) == 0 {
		return IDSRule{}, fmt.Errorf("rule needs a content option")
	}
	return rule, nil
}

func splitOptions(s string) []string {
	// Options are ';'-separated, but ';' may appear inside quotes.
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' && (i == 0 || s[i-1] != '\\'):
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ';' && !inQuote:
			if t := strings.TrimSpace(cur.String()); t != "" {
				out = append(out, t)
			}
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if t := strings.TrimSpace(cur.String()); t != "" {
		out = append(out, t)
	}
	return out
}

func unquote(v string) (string, error) {
	if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", v)
	}
	body := v[1 : len(v)-1]
	body = strings.ReplaceAll(body, `\"`, `"`)
	body = strings.ReplaceAll(body, `\\`, `\`)
	return body, nil
}

func parseAddr(s string) (netip.Prefix, error) {
	if s == "any" {
		return netip.Prefix{}, nil
	}
	if !strings.Contains(s, "/") {
		a, err := netip.ParseAddr(s)
		if err != nil {
			return netip.Prefix{}, fmt.Errorf("address %q: %w", s, err)
		}
		return netip.PrefixFrom(a, a.BitLen()), nil
	}
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("prefix %q: %w", s, err)
	}
	return p, nil
}

func parsePort(s string) (uint16, error) {
	if s == "any" {
		return 0, nil
	}
	n, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("port %q: %w", s, err)
	}
	return uint16(n), nil
}

// RuleIDS is the full rule-driven IDS: header predicates select
// candidate rules, an Aho-Corasick pass over the payload matches all
// contents at once, and the verdict is the strictest matching rule's
// action. It generalizes the fixed-signature IDS used in the
// microbenchmarks.
type RuleIDS struct {
	rules   []IDSRule
	matcher *ahocorasick.Matcher
	alerts  alertLog[RuleAlert]
	scanned uint64
}

// RuleAlert records a rule hit.
type RuleAlert struct {
	SID int
	Msg string
	PID uint64
}

// NewRuleIDS builds an IDS from parsed rules.
func NewRuleIDS(rules []IDSRule) *RuleIDS {
	patterns := make([][]byte, len(rules))
	for i, r := range rules {
		patterns[i] = r.Content
	}
	return &RuleIDS{rules: rules, matcher: ahocorasick.New(patterns)}
}

// Name implements NF. The rule IDS presents the inline-IDS profile.
func (d *RuleIDS) Name() string { return nfa.NFIDS }

// Process evaluates all rules against the packet.
func (d *RuleIDS) Process(p *packet.Packet) Verdict {
	d.scanned++
	k, err := p.FlowKey()
	if err != nil {
		return Pass
	}
	verdict := Pass
	d.matcher.Match(p.Payload(), func(ruleIdx, _ int) bool {
		r := &d.rules[ruleIdx]
		if !r.matchesHeader(k) {
			return true
		}
		d.alerts.add(RuleAlert{SID: r.SID, Msg: r.Msg, PID: p.Meta.PID})
		if r.Action == "drop" {
			verdict = Drop
			return false // strictest action found; stop scanning
		}
		return true
	})
	return verdict
}

// Alerts returns the most recent rule hits (up to alertLogCap), oldest
// first.
func (d *RuleIDS) Alerts() []RuleAlert { return d.alerts.list() }

// Hits returns the number of rule hits, retained or not.
func (d *RuleIDS) Hits() uint64 { return d.alerts.hits }

// Scanned returns the number of inspected packets.
func (d *RuleIDS) Scanned() uint64 { return d.scanned }
