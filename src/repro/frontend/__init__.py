"""C frontend: preprocess → parse → type-elaborate → lower to the VDG."""
