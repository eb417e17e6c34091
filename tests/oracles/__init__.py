"""Reference implementations the tests compare the program against."""
