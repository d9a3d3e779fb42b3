// Package wiretest is the test-side companion of package wire: it respells
// a JSON document every way a foreign writer might, for the differential
// tests that hold the hand codecs to encoding/json.
package wiretest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
)

// jsonValue is a JSON document with its objects' member order kept.
type jsonValue struct {
	members []jsonMember // an object's
	elems   []jsonValue  // an array's
	leaf    string       // anything else, as written
	kind    byte         // '{', '[' or 0
}

type jsonMember struct {
	key string
	val jsonValue
}

func readJSONValue(dec *json.Decoder) jsonValue {
	tok, err := dec.Token()
	if err != nil {
		panic(err)
	}
	switch tok := tok.(type) {
	case json.Delim:
		v := jsonValue{kind: byte(tok)}
		for dec.More() {
			if tok == '{' {
				k, _ := dec.Token()
				v.members = append(v.members, jsonMember{k.(string), readJSONValue(dec)})
			} else {
				v.elems = append(v.elems, readJSONValue(dec))
			}
		}
		dec.Token()
		return v
	case string:
		return jsonValue{leaf: string(quoteLoosely(nil, tok, nil))}
	case json.Number:
		return jsonValue{leaf: tok.String()}
	case nil:
		return jsonValue{leaf: "null"}
	default:
		return jsonValue{leaf: fmt.Sprint(tok)}
	}
}

// quoteLoosely quotes s the way a foreign writer might: with an rng, some
// characters go out as \uXXXX escapes (surrogate pairs above the BMP) and /
// as \/; without one, as encoding/json would.
func quoteLoosely(dst []byte, s string, rng *rand.Rand) []byte {
	if rng == nil {
		b, _ := json.Marshal(s)
		return append(dst, b...)
	}
	dst = append(dst, '"')
	for _, r := range s {
		switch {
		case r < 0x10000 && rng.Intn(4) == 0:
			dst = fmt.Appendf(dst, `\u%04X`, r)
		case r >= 0x10000 && rng.Intn(4) == 0:
			hi, lo := (r-0x10000)>>10+0xd800, (r-0x10000)&0x3ff+0xdc00
			dst = fmt.Appendf(dst, `\u%04x\u%04x`, hi, lo)
		case r == '/' && rng.Intn(2) == 0:
			dst = append(dst, `\/`...)
		default:
			b, _ := json.Marshal(string(r))
			dst = append(dst, b[1:len(b)-1]...)
		}
	}
	return append(dst, '"')
}

// isStruct reports whether the object v has a member that is not a number:
// in the schemas this package serves, a tally (a map, where every member is
// an entry) has none, and an unknown member belongs only in the others.
func (v jsonValue) isStruct() bool {
	for _, m := range v.members {
		if c := m.val.leaf; m.val.kind != 0 || c[0] == '"' || c[0] == 't' || c[0] == 'f' || c[0] == 'n' {
			return true
		}
	}
	return false
}

// render writes v with its objects' members shuffled, white space
// scattered, strings re-quoted loosely and, now and then, a member no
// schema knows thrown into an object that is a struct's.
func (v jsonValue) render(dst []byte, rng *rand.Rand) []byte {
	space := func() {
		for rng.Intn(3) == 0 {
			dst = append(dst, " \t\r\n"[rng.Intn(4)])
		}
	}
	space()
	switch v.kind {
	case '{':
		dst = append(dst, '{')
		members := append([]jsonMember(nil), v.members...)
		if v.isStruct() && rng.Intn(3) == 0 {
			members = append(members, jsonMember{"x-unknown", jsonValue{leaf: `[{"v":[1.5e+3,null,"}"]},true]`}})
		}
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		for i, m := range members {
			if i > 0 {
				dst = append(dst, ',')
			}
			space()
			dst = quoteLoosely(dst, m.key, rng)
			space()
			dst = append(dst, ':')
			dst = m.val.render(dst, rng)
		}
		space()
		dst = append(dst, '}')
	case '[':
		dst = append(dst, '[')
		for i, e := range v.elems {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = e.render(dst, rng)
		}
		space()
		dst = append(dst, ']')
	default:
		if v.leaf[0] == '"' {
			var s string
			if err := json.Unmarshal([]byte(v.leaf), &s); err != nil {
				panic(err)
			}
			dst = quoteLoosely(dst, s, rng)
		} else {
			dst = append(dst, v.leaf...)
		}
	}
	space()
	return dst
}

// Respell returns doc — one JSON document — as some other writer might have
// spelt it: see jsonValue.render.
func Respell(doc []byte, rng *rand.Rand) []byte {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	return readJSONValue(dec).render(nil, rng)
}
