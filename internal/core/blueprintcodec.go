package core

import (
	"encoding/json"
	"errors"
	"fmt"
)

// This file is the serialization boundary of the plan cache: the persistent
// store (internal/store) holds blueprints as bytes, and this codec is the
// only way across. The envelope embeds the blueprint's own digest so a
// decoded artifact proves it is the schedule that was encoded — a second,
// independent line of defense behind the store's blob-level checksum (the
// blob digest guards the bytes; the envelope digest guards the semantics,
// catching codec drift the store cannot see).

// blueprintEnvelope is the persisted wire form of one blueprint.
type blueprintEnvelope struct {
	// Digest is Blueprint.Digest() of the payload, re-derived and compared
	// on decode.
	Digest    string     `json:"digest"`
	Blueprint *Blueprint `json:"blueprint"`
}

// EncodeBlueprint renders bp as a self-verifying envelope. Blueprints
// contain only scalars and slices, so encoding is deterministic:
// encode -> decode -> encode is byte-identical (FuzzStoreRoundTrip locks
// this in from the store side).
func EncodeBlueprint(bp *Blueprint) ([]byte, error) {
	if bp == nil {
		return nil, errors.New("core: cannot encode nil blueprint")
	}
	return json.Marshal(blueprintEnvelope{Digest: bp.Digest(), Blueprint: bp})
}

// DecodeBlueprint parses an envelope and verifies it: the payload must
// decode, carry a blueprint, re-digest to the embedded digest, and pass
// Plan.Validate. The digest is not a secret — anyone can recompute it — so
// validation is what keeps a forged envelope from naming links outside its
// topology. It never panics on arbitrary bytes and never returns a
// blueprint that is not bit-for-bit the schedule EncodeBlueprint saw.
func DecodeBlueprint(data []byte) (*Blueprint, error) {
	var env blueprintEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: blueprint envelope: %w", err)
	}
	if env.Blueprint == nil {
		return nil, errors.New("core: blueprint envelope has no blueprint")
	}
	if got := env.Blueprint.Digest(); got != env.Digest {
		return nil, fmt.Errorf("core: blueprint digest mismatch: envelope %.12s.., payload %.12s..", env.Digest, got)
	}
	if err := env.Blueprint.Validate(); err != nil {
		return nil, fmt.Errorf("core: blueprint envelope: %w", err)
	}
	return env.Blueprint, nil
}
