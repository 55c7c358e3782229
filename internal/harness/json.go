package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
)

// MarshalJSON renders an App as its display name, so JSON rows are
// self-describing ("Barnes-SVM" rather than 0).
func (a App) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// MarshalJSON renders a Variant as "AU" or "DU".
func (v Variant) MarshalJSON() ([]byte, error) { return json.Marshal(v.String()) }

// jsonRecord is one machine-readable result row, as emitted by
// `shrimpbench -json`: one object per table/figure row, so successive
// changes can be diffed row by row.
type jsonRecord struct {
	Experiment string `json:"experiment"`
	Row        any    `json:"row"`
}

// EmitJSON writes rows (any slice of result-row structs, or a single
// struct) as newline-delimited JSON records tagged with the experiment
// name. Virtual times serialize as integer nanoseconds.
func EmitJSON(w io.Writer, experiment string, rows any) error {
	enc := json.NewEncoder(w)
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		return enc.Encode(jsonRecord{Experiment: experiment, Row: rows})
	}
	for i := 0; i < v.Len(); i++ {
		if err := enc.Encode(jsonRecord{Experiment: experiment, Row: v.Index(i).Interface()}); err != nil {
			return fmt.Errorf("harness: emitting %s row %d: %w", experiment, i, err)
		}
	}
	return nil
}
