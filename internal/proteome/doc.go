// Package proteome implements SCAN's proteomic substrate: a deterministic
// spectral peptide-matching toolkit standing in for MaxQuant and the
// Global Proteome Machine in the paper's Figure 1 MS path.
//
// The model is the core of every database search engine, reduced to what
// the platform needs to exercise its scatter/gather machinery honestly: a
// reference peptide database (named fragment-mass lists per protein),
// simulated MS/MS spectra drawn from it (fragment dropout, mass jitter,
// noise peaks), and a search that assigns each spectrum to the peptide
// whose fragments it covers best. Matches gather into a ProteinTable —
// spectral counts per protein, the label-free quantification proxy.
//
// The search is a fragment-ion index, the layout of MSFragger: NewIndex
// sorts every fragment mass of the database once, and each spectrum peak
// finds the first fragment within tolerance of it with one binary search
// and walks the run of them, so a spectrum costs O(peaks · log fragments +
// hits) instead of one probe per database fragment. Each hit is counted
// against its peptide in a Scratch, which one shard reuses for all of its
// spectra and which is cleared of the peptides hit after each one. The
// Index also numbers the database's proteins, so Quantify gathers matches
// by index, not by name. A stage builds one Index and shares it across its
// shards.
//
// Scatter/gather shape: the spectrum is the scatter unit. Each spectrum
// searches the database independently, so a large acquisition fans out
// into Data-Broker-sized spectrum shards exactly the way FASTQ reads fan
// out for alignment; the per-shard match sets gather into one table.
//
// Determinism guarantee: generation is seeded (GenerateDatabase and
// SimulateSpectra regenerate identical data from equal seeds), Search and
// Index.Search are pure functions of (database, spectrum, config), and
// Quantify sorts its output by protein name and sums scores in match
// order — so results are identical across runs and, gathered in spectrum
// order, independent of shard count. The index
// changes how fragments are found, not which peptide wins: it scores and
// breaks ties exactly as a per-peptide scan of the database does. The
// workflow engine relies on this: sharded and unsharded executions of the
// proteomic stages are byte-equivalent.
package proteome
