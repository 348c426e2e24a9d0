"""Reference implementations the tests compare production code against."""
