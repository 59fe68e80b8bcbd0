package masque

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Token fraud prevention (§2): Apple limits the number of access tokens
// issued per user and day. TokenIssuer mints HMAC-signed tokens subject to
// that quota; ingress relays validate signatures statelessly.

// Token errors.
var (
	ErrTokenQuota   = errors.New("masque: daily token quota exhausted")
	ErrTokenInvalid = errors.New("masque: invalid token")
)

// TokenIssuer mints and validates access tokens.
type TokenIssuer struct {
	secret []byte
	// DailyLimit caps tokens per (account, day); zero means 100.
	DailyLimit int

	mu     sync.Mutex
	issued map[string]int // "account|day" → count
}

// NewTokenIssuer returns an issuer keyed by secret.
func NewTokenIssuer(secret string, dailyLimit int) *TokenIssuer {
	if dailyLimit <= 0 {
		dailyLimit = 100
	}
	return &TokenIssuer{
		secret:     []byte(secret),
		DailyLimit: dailyLimit,
		issued:     make(map[string]int),
	}
}

// Issue mints a token for account on the given day (e.g. "2022-05-11"),
// enforcing the daily quota.
func (ti *TokenIssuer) Issue(account, day string) (string, error) {
	n, err := ti.take(account + "|" + day)
	if err != nil {
		return "", err
	}
	body := fmt.Sprintf("%s|%s|%d", account, day, n)
	mac := hmac.New(sha256.New, ti.secret)
	mac.Write([]byte(body))
	sig := base64.RawURLEncoding.EncodeToString(mac.Sum(nil))
	return base64.RawURLEncoding.EncodeToString([]byte(body)) + "." + sig, nil
}

// take counts one more token against key's quota, returning the
// token's sequence number.
func (ti *TokenIssuer) take(key string) (int, error) {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if ti.issued[key] >= ti.DailyLimit {
		return 0, ErrTokenQuota
	}
	ti.issued[key]++
	return ti.issued[key], nil
}

// Validate checks a token's signature. Validation is stateless: ingress
// relays do not call home per connection.
func (ti *TokenIssuer) Validate(token string) error {
	dot := strings.IndexByte(token, '.')
	if dot < 0 {
		return ErrTokenInvalid
	}
	body, err := base64.RawURLEncoding.DecodeString(token[:dot])
	if err != nil {
		return ErrTokenInvalid
	}
	sig, err := base64.RawURLEncoding.DecodeString(token[dot+1:])
	if err != nil {
		return ErrTokenInvalid
	}
	mac := hmac.New(sha256.New, ti.secret)
	mac.Write(body)
	if !hmac.Equal(sig, mac.Sum(nil)) {
		return ErrTokenInvalid
	}
	return nil
}

// Remaining returns how many tokens account may still obtain on day.
func (ti *TokenIssuer) Remaining(account, day string) int {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	return ti.DailyLimit - ti.issued[account+"|"+day]
}
