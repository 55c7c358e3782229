package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"shrimp/internal/analysis/registry"
)

// SARIF 2.1.0 export: the minimal subset code-scanning UIs consume —
// one run, the rule catalog as reportingDescriptors, one result per
// finding with a physical location. Written by `shrimpvet -sarif
// out.json ./...`; CI uploads it as a build artifact so findings
// survive the log scroll.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF writes findings as a SARIF 2.1.0 log at path, with the
// whole suite as the rule catalog. The caller names files relative to
// the module root, so the report is stable across checkouts.
func writeSARIF(path string, findings []registry.Finding) error {
	suite := registry.All()
	rules := make([]sarifRule, len(suite))
	for i, a := range suite {
		rules[i] = sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}}
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "warning",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.Pos.Filename)},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}
	sort.SliceStable(results, func(i, j int) bool {
		a, b := results[i].Locations[0].PhysicalLocation, results[j].Locations[0].PhysicalLocation
		if a.ArtifactLocation.URI != b.ArtifactLocation.URI {
			return a.ArtifactLocation.URI < b.ArtifactLocation.URI
		}
		return a.Region.StartLine < b.Region.StartLine
	})
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: progname, Rules: rules}}, Results: results}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
