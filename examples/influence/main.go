// Influence tracking: "who reaches this account?" The Tracker maintains the
// account's contribution PPR — Estimate(v) is the probability that a random
// walk from v stops at the account — so its TopK ranks the accounts whose
// attention flows to it most, directly or through intermediaries. This
// example keeps that audience ranking fresh while the follow graph churns.
//
// Run with:
//
//	go run ./examples/influence
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dynppr"
)

func main() {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "influence", Model: dynppr.ModelRMAT,
		Vertices: 2000, Edges: 25000, Seed: 19,
	})
	if err != nil {
		log.Fatal(err)
	}
	g := dynppr.GraphFromEdges(edges)
	account := g.TopDegreeVertices(3)[2] // a well-connected, non-top account

	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-6
	tr, err := dynppr.NewTracker(g, account, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("account %d on a graph with %d vertices / %d edges\n\n",
		account, g.NumVertices(), g.NumEdges())
	printAudience(tr, account)

	// Churn: new follows appear, old ones disappear.
	rng := rand.New(rand.NewSource(5))
	for round := 1; round <= 5; round++ {
		batch := make(dynppr.Batch, 0, 120)
		for i := 0; i < 100; i++ {
			u := dynppr.VertexID(rng.Intn(g.NumVertices()))
			v := dynppr.VertexID(rng.Intn(g.NumVertices()))
			if u != v {
				batch = append(batch, dynppr.Update{U: u, V: v, Op: dynppr.Insert})
			}
		}
		existing := g.Edges()
		for i := 0; i < 20; i++ {
			e := existing[rng.Intn(len(existing))]
			batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Delete})
		}
		res := tr.ApplyBatch(batch)
		fmt.Printf("round %d: refresh %v, %d effective updates, %d pushes\n",
			round, res.Latency, res.Applied, res.Pushes)
	}

	fmt.Println()
	printAudience(tr, account)
}

func printAudience(tr *dynppr.Tracker, account dynppr.VertexID) {
	fmt.Println("audience (contribution PPR — who reaches the account):")
	shown := 0
	for _, vs := range tr.TopK(10) {
		if vs.Vertex == account {
			continue
		}
		fmt.Printf("  account %-6d score %.5f\n", vs.Vertex, vs.Score)
		if shown++; shown == 5 {
			break
		}
	}
}
