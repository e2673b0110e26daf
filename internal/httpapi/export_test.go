package httpapi

// BaseURL returns the server base URL the client was built with, so raw-HTTP
// tests reach the same server the Client uses.
func (c *Client) BaseURL() string { return c.base }
