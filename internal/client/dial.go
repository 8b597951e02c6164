package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
)

// ErrNoMatchingReplica reports that Dial reached ensemble members but
// none satisfied the requested ReadPreference.
var ErrNoMatchingReplica = errors.New("client: no replica matches the read preference")

// Dial connects to an ensemble given its client addresses and returns
// a session on a member matching opts.ReadPreference. Addresses are
// tried in random order (so a fleet of clients spreads across the
// ensemble instead of piling onto the list's first entry) with
// failover past unreachable members; ctx bounds the whole attempt.
//
// With the default Nearest preference the first reachable member
// serves the session. Leader and ObserverOnly probe each member's
// role through the stats op and keep looking until one matches; if
// every member is reachable but none matches (say, ObserverOnly
// against an all-voter ensemble) Dial fails with
// ErrNoMatchingReplica rather than silently downgrading.
func Dial(ctx context.Context, addrs []string, opts Options) (*Client, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	candidates := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if a = strings.TrimSpace(a); a != "" {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		return nil, errors.New("client: no addresses to dial")
	}
	rand.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})

	var errs []error
	reachedButRejected := false
	for _, addr := range candidates {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		cl, err := dialOne(ctx, addr, opts)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ok, err := matchesPreference(ctx, cl, opts.ReadPreference)
		if err != nil {
			_ = cl.Close()
			errs = append(errs, fmt.Errorf("probe %s: %w", addr, err))
			continue
		}
		if !ok {
			_ = cl.Close()
			reachedButRejected = true
			continue
		}
		return cl, nil
	}
	if reachedButRejected {
		errs = append(errs, fmt.Errorf("%w: %s", ErrNoMatchingReplica, opts.ReadPreference))
	}
	return nil, fmt.Errorf("client: dial %s: %w", strings.Join(candidates, ","), errors.Join(errs...))
}

// dialTimeout bounds each single address attempt inside Dial; the ctx
// bounds the whole call.
const dialTimeout = 5 * time.Second

// dialOne connects, optionally handshakes, and opens a session against
// a single address.
func dialOne(ctx context.Context, addr string, opts Options) (*Client, error) {
	d := net.Dialer{Timeout: dialTimeout}
	tcp, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	var conn transport.Conn = transport.NewFramedConn(tcp)
	if opts.Secure {
		id, err := transport.NewIdentity()
		if err != nil {
			_ = tcp.Close()
			return nil, err
		}
		verify := opts.VerifyPeer
		if verify == nil {
			verify = transport.VerifyAny()
		}
		conn, err = transport.Handshake(conn, id, true, verify)
		if err != nil {
			_ = tcp.Close()
			return nil, fmt.Errorf("secure handshake with %s: %w", addr, err)
		}
	}
	cl, err := NewSession(conn, opts)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("session with %s: %w", addr, err)
	}
	return cl, nil
}

// matchesPreference reports whether the connected member's role
// satisfies pref. Nearest skips the probe entirely: any member will do,
// and an extra round-trip per dial would be pure overhead.
func matchesPreference(ctx context.Context, cl *Client, pref ReadPreference) (bool, error) {
	if pref == Nearest {
		return true, nil
	}
	stats, err := cl.ServerStats(ctx)
	if err != nil {
		return false, err
	}
	switch pref {
	case Leader:
		return stats.Role == zab.RoleLeading.String(), nil
	case ObserverOnly:
		return stats.Role == zab.RoleObserving.String(), nil
	default:
		return false, fmt.Errorf("client: unknown read preference %d", pref)
	}
}
