package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"time"
)

// verifySample is how many of each session's keys are read back.
const verifySample = 512

// checkOutputs is the check on the program's outputs after the last
// round. Every GET of the run has already been compared with the last
// payload its session wrote to that key; here a seeded sample of each
// session's keys is read back and compared again, the three replicas'
// trees must converge on one digest, and the mesh must not have dropped
// a frame on a full outbox.
func (b *bench) checkOutputs() error {
	rng := rand.New(rand.NewPCG(b.opt.seed, 0x766572696679))
	for _, s := range b.sessions {
		for i := 0; i < min(verifySample, len(s.paths)); i++ {
			k := rng.IntN(len(s.paths))
			data, _, err := s.cl.Get(context.Background(), s.paths[k])
			if err != nil {
				return fmt.Errorf("read back %s: %w", s.paths[k], err)
			}
			if !bytes.Equal(data, s.payload(s.lastOff[k])) {
				return fmt.Errorf("read back %s: %w", s.paths[k], errWrongData)
			}
		}
	}
	if err := b.ens.converged(5 * time.Second); err != nil {
		return err
	}
	if shed := b.ens.outboxShed(); shed != 0 {
		return fmt.Errorf("zabnet shed %v frames on a full outbox", shed)
	}
	return nil
}
