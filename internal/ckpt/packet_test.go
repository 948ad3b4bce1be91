package ckpt

import (
	"reflect"
	"strings"
	"testing"

	"unison/internal/packet"
)

// TestPacketLayoutCoversEveryField: a packet whose every field holds a
// distinct non-zero value takes PacketBytes and decodes back equal, so a
// field added to packet.Packet without a place in the layout fails here
// rather than vanishing from checkpoints and dist frames.
func TestPacketLayoutCoversEveryField(t *testing.T) {
	var p packet.Packet
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(i + 1))
		default:
			t.Fatalf("field %s has kind %v, which the layout does not know", v.Type().Field(i).Name, f.Kind())
		}
	}
	var e Enc
	e.Packet(&p)
	if len(e.Bytes()) != PacketBytes {
		t.Fatalf("a packet encodes to %d bytes, PacketBytes says %d", len(e.Bytes()), PacketBytes)
	}
	d := NewDec(e.Bytes())
	if got := d.Packet(); got != p || d.Err() != nil || d.Len() != 0 {
		t.Fatalf("decoded %+v (err %v, %d left), want %+v", got, d.Err(), d.Len(), p)
	}
}

// TestBoolRefusesOtherBytes: a flag is 0 or 1, so every accepted byte
// encodes back to itself.
func TestBoolRefusesOtherBytes(t *testing.T) {
	for b := 0; b < 256; b++ {
		d := NewDec([]byte{byte(b)})
		got := d.Bool()
		switch {
		case b <= 1 && (d.Err() != nil || got != (b == 1)):
			t.Errorf("byte %d: %v, %v", b, got, d.Err())
		case b > 1 && (d.Err() == nil || !strings.Contains(d.Err().Error(), "bad bool")):
			t.Errorf("byte %d accepted as %v", b, got)
		}
	}
}
