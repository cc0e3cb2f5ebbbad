package pack_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/anneal"
	"repro/internal/bench"
	"repro/internal/rectpack"
	"repro/internal/sched"
	"repro/internal/schedio"
)

// TestBackendsPinned pins the schedio SHA-256 and makespan of the three
// packing backends in the two regimes the corpus never exercises: a TAM
// wider than the optimizer cap (W=72, cap 64), where rectpack's cap
// ladder divides W and anneal's divides the cap, and a per-core width cap
// below W (W=40, MaxWidth 12). Each runs under preemption budgets 0, 1
// and 3, with Backend.Schedule called directly so no backend declines.
func TestBackendsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned backend replay skipped in -short mode")
	}
	backends := map[string]sched.Backend{}
	for _, b := range []sched.Backend{rectpack.New(), rectpack.NewPreempt(), anneal.New()} {
		backends[b.Name()] = b
	}
	socs := map[string]*sched.Optimizer{}
	for _, prof := range []string{"mixed", "combo"} {
		cfg := bench.SynthConfig{Name: "packpin", Cores: 24, Seed: 4, Profile: prof, HierarchyPct: 20, ExtraPrecedences: 2, ExtraConcurrencies: 1}
		if prof == "combo" {
			cfg.Cores = 40
		}
		opt, err := sched.New(bench.Synth(cfg), sched.DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		socs[prof] = opt
	}
	for _, tc := range []struct {
		soc, backend    string
		width, maxWidth int
		budget          int
		makespan        int64
		sha256          string
	}{
		{"mixed", "rectpack", 72, 0, 0, 205218, "c4ea7f93536a4018feb2e4ea43dc6a8401adede5bf8909bf264375ca224a50de"},
		{"mixed", "preempt-rectpack", 72, 0, 0, 169523, "5e1aeb3db3284ab13cfc16943c590de174b7d66967a9262b5da0917323649389"},
		{"mixed", "anneal", 72, 0, 0, 169523, "c74e767b9aa8ba84c4f4e90cde0ef24e8544cc000ef3a745e55bc0eecc8a9018"},
		{"mixed", "rectpack", 72, 0, 1, 205218, "c4ea7f93536a4018feb2e4ea43dc6a8401adede5bf8909bf264375ca224a50de"},
		{"mixed", "preempt-rectpack", 72, 0, 1, 169523, "e6a635017e4692382cff86e89b1d64fa313e25069ee47856c977ecb0a724a21c"},
		{"mixed", "anneal", 72, 0, 1, 169523, "f54887c76accc08c2dc8c3dbfbc55fb8a56d1e485c0ca768f8a1c006efc511eb"},
		{"mixed", "rectpack", 72, 0, 3, 205218, "c4ea7f93536a4018feb2e4ea43dc6a8401adede5bf8909bf264375ca224a50de"},
		{"mixed", "preempt-rectpack", 72, 0, 3, 169523, "d2509c4debc745e713831377ff2b18be64d32746a2686a8d9e8b763f89d87f78"},
		{"mixed", "anneal", 72, 0, 3, 169523, "f54887c76accc08c2dc8c3dbfbc55fb8a56d1e485c0ca768f8a1c006efc511eb"},
		{"mixed", "rectpack", 40, 12, 0, 243045, "c23b10131c44716ee41538911677819d77685776abbb4b115f8f491e88211256"},
		{"mixed", "preempt-rectpack", 40, 12, 0, 187714, "ba8d91c5cf689fc505a54c3606436c1583cd918f3e5d87ce17e472a95ddf2d4e"},
		{"mixed", "anneal", 40, 12, 0, 170983, "bc8c8b39373cbd4bf9a0e34b0957cc5fd6763c9674c0e6a832c6c87791a503b3"},
		{"mixed", "rectpack", 40, 12, 1, 243045, "c23b10131c44716ee41538911677819d77685776abbb4b115f8f491e88211256"},
		{"mixed", "preempt-rectpack", 40, 12, 1, 204320, "33c5fea344d944fc103c9a3e656558a0b83c432d2295da3618f557df1956af4f"},
		{"mixed", "anneal", 40, 12, 1, 177236, "4d4e42bab38c4e251a3a915283057dc4f83f5b331d25eac53843acc174f52827"},
		{"mixed", "rectpack", 40, 12, 3, 243045, "c23b10131c44716ee41538911677819d77685776abbb4b115f8f491e88211256"},
		{"mixed", "preempt-rectpack", 40, 12, 3, 204320, "7f54cd09e65860a9848bfa9565d0a0c1fbe1fd066b8e5da490d98bf0602f210c"},
		{"mixed", "anneal", 40, 12, 3, 177236, "4d4e42bab38c4e251a3a915283057dc4f83f5b331d25eac53843acc174f52827"},
		{"combo", "rectpack", 72, 0, 0, 15625, "1cb89415541d5a4bf695a6f8a9eacd2f0c8c5c7d8210338734020c883ba448f1"},
		{"combo", "preempt-rectpack", 72, 0, 0, 15403, "aa0fbd4a639ca7eac54775e3310459d23d3a723bd3888c98ae2a3673fdb65edf"},
		{"combo", "anneal", 72, 0, 0, 14117, "4971d33b0a617875de931d929c72f086903360e035d2b0241a6a956b8fbc79f1"},
		{"combo", "rectpack", 72, 0, 1, 15625, "1cb89415541d5a4bf695a6f8a9eacd2f0c8c5c7d8210338734020c883ba448f1"},
		{"combo", "preempt-rectpack", 72, 0, 1, 15136, "f13f560dadbd4d2c8fc5f748146e5b25bc3740b297709d25d06c72b3d0bc64c0"},
		{"combo", "anneal", 72, 0, 1, 14475, "57dcddb8b2d79dab948fdcd5cd968406ab7b327ae4e479b406e3dab384c3765e"},
		{"combo", "rectpack", 72, 0, 3, 15625, "1cb89415541d5a4bf695a6f8a9eacd2f0c8c5c7d8210338734020c883ba448f1"},
		{"combo", "preempt-rectpack", 72, 0, 3, 15136, "f13f560dadbd4d2c8fc5f748146e5b25bc3740b297709d25d06c72b3d0bc64c0"},
		{"combo", "anneal", 72, 0, 3, 14475, "57dcddb8b2d79dab948fdcd5cd968406ab7b327ae4e479b406e3dab384c3765e"},
		{"combo", "rectpack", 40, 12, 0, 23664, "9bbafebda873feb209386f1404687db4318e4b48470ebd7f7e1dee9bdde324e8"},
		{"combo", "preempt-rectpack", 40, 12, 0, 23664, "c96819b5b339944740de571be4888dd919e41e82e0328870a14e7662c253e32e"},
		{"combo", "anneal", 40, 12, 0, 22516, "e82f4e4e47cbaef12e1cf16b6f786c69040fc55bc217bd5855bd3a54736af96d"},
		{"combo", "rectpack", 40, 12, 1, 23664, "9bbafebda873feb209386f1404687db4318e4b48470ebd7f7e1dee9bdde324e8"},
		{"combo", "preempt-rectpack", 40, 12, 1, 23430, "1f599a966cf914dbda73c3f29c25e380f0ec43705f2a6dd83807cd499194b76f"},
		{"combo", "anneal", 40, 12, 1, 22530, "86317f8c16e4fd26197fdc47aa3989732c4b3093c1c5114f3b805448f01eef19"},
		{"combo", "rectpack", 40, 12, 3, 23664, "9bbafebda873feb209386f1404687db4318e4b48470ebd7f7e1dee9bdde324e8"},
		{"combo", "preempt-rectpack", 40, 12, 3, 23664, "c96819b5b339944740de571be4888dd919e41e82e0328870a14e7662c253e32e"},
		{"combo", "anneal", 40, 12, 3, 22530, "86317f8c16e4fd26197fdc47aa3989732c4b3093c1c5114f3b805448f01eef19"},
	} {
		t.Run(fmt.Sprintf("%s/%s/w%d-m%d-b%d", tc.soc, tc.backend, tc.width, tc.maxWidth, tc.budget), func(t *testing.T) {
			opt := socs[tc.soc]
			p := sched.Params{TAMWidth: tc.width, MaxWidth: tc.maxWidth, Workers: 1, Backend: tc.backend}
			if tc.budget > 0 {
				mp, err := opt.LargerCorePreemptions(tc.budget)
				if err != nil {
					t.Fatal(err)
				}
				p.MaxPreemptions = mp
			}
			sch, err := backends[tc.backend].Schedule(context.Background(), opt, p)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := schedio.Save(&buf, sch); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); sch.Makespan != tc.makespan || got != tc.sha256 {
				t.Errorf("makespan %d sha256 %s, want %d %s", sch.Makespan, got, tc.makespan, tc.sha256)
			}
		})
	}
}
